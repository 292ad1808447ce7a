(** Simulation processes: direct-style coroutines over the event engine.

    A process is ordinary OCaml code started with [spawn] that may block
    on virtual time ([sleep]) or on data ([Ivar.read], [Mailbox.recv]).
    Blocking is implemented with OCaml 5 effects, so controller
    operations read like the paper's pseudo-code — e.g. Figure 6's
    "wait (GOT_FIRST_PKT_FROM_SW)" is an [Ivar.read].

    [sleep]/[Ivar.read]/[Mailbox.recv] must be called from inside a
    process (i.e. under [spawn]); calling them elsewhere raises
    [Not_in_process]. *)

exception Not_in_process

val spawn : Engine.t -> (unit -> unit) -> unit
(** Start a process at the current virtual time. Exceptions escaping the
    process body are re-raised out of [Engine.run]. *)

val sleep : float -> unit
(** Suspend the calling process for the given number of virtual seconds. *)

module Ivar : sig
  type 'a t
  (** Write-once synchronization variable. *)

  val create : Engine.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. Waiting readers are
      resumed at the current virtual time (after currently queued
      events). *)

  val fill_if_empty : 'a t -> 'a -> bool
  (** Like {!fill} but a no-op on an already-filled ivar; returns
      whether the value was written. Duplicate-reply tolerance: a
      retried request may be answered twice. *)

  val peek : 'a t -> 'a option
  val read : 'a t -> 'a
  (** Block the calling process until the ivar is filled. *)

  val upon : 'a t -> ('a -> unit) -> unit
  (** [upon t f] runs [f v] once [t] holds [v], in the slot a reader
      blocked at this point would resume in: on an empty ivar [f] joins
      the waiters and is scheduled at the fill with delay 0, in
      registration order among readers and other callbacks; on a full
      ivar it is scheduled with delay 0, after the events already
      queued. [f] runs as a plain event, outside any process, so it must
      not block ([sleep], [Ivar.read] and [Mailbox.recv] raise
      [Not_in_process] there). It costs one closure, where a process
      spawned to read the ivar costs an event, a fiber and an effect. *)

  val read_timeout : 'a t -> timeout:float -> 'a option
  (** Block until the ivar is filled or [timeout] virtual seconds pass,
      whichever comes first; [None] on timeout. The deadline mechanism
      behind the controller's resilient southbound calls. *)
end

module Mailbox : sig
  type 'a t
  (** Unbounded FIFO channel between processes. *)

  val create : Engine.t -> 'a t
  val send : 'a t -> 'a -> unit
  (** Never blocks. *)

  val recv : 'a t -> 'a
  (** Block the calling process until a message is available. *)

  val length : 'a t -> int
end
