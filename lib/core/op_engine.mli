(** Shared transactional core of the northbound operations.

    {!Move}, {!Copy_op}, {!Share} and {!Notify} used to be four
    hand-rolled state machines repeating the same lifecycle: validate
    the spec, stamp a start time, run scoped get/del/put transfers with
    per-chunk accounting, fire progress hooks and assemble a report.
    This module owns that lifecycle; the operations keep only their
    protocol-specific deltas (event wiring, two-phase forwarding
    updates, rollback policy).

    Everything here replicates the legacy per-operation code paths
    {e exactly} — same southbound call order, same chunk-recording
    order, same wake-up instants — so fault-free runs stay bit-identical
    in virtual time to the pre-refactor code. *)

open Opennf_net
open Opennf_state
module Proc = Opennf_sim.Proc

(** {1 Chunk accounting} *)

type tally = { mutable chunks : int; mutable bytes : int }
(** Running chunk count and byte total for one scope group of an
    operation (the fold every op used to hand-roll). *)

val tally : unit -> tally

val account : tally -> (Filter.t * Chunk.t) list -> unit
(** Add a completed transfer's chunks to the tally. *)

(** {1 Operation frame} *)

type frame = {
  ctrl : Controller.t;
  engine : Opennf_sim.Engine.t;
  started : float;  (** Virtual time the operation began. *)
  options : Op_options.t;
  obs : Opennf_obs.Hub.t;  (** The controller's observability hub. *)
  span : int;  (** The op's open trace span; 0 when not tracing. *)
}
(** Per-operation context: controller handle, start stamp and the
    resolved {!Op_options.t}. Created once per run and threaded through
    the transfer/guard helpers. *)

val start : ?kind:string -> Controller.t -> options:Op_options.t -> frame
(** Opens the op's trace span under [kind] (["move"], ["copy"], ...;
    default ["op"]) and bumps the ["op.started"] counter. *)

val now : frame -> float

val mark : frame -> string -> unit
(** Phase-mark instant under the op's span — for protocol steps outside
    a transfer (buffer flush, two-phase handoff), so critical-path
    analysis can attribute their time. No-op when not tracing. *)

val finish :
  frame -> ('a, Op_error.t) result -> ('a, Op_error.t) result
(** Terminal accounting: bumps ["op.completed"] or
    ["op.failed"]/["op.failed.<kind>"], observes ["op.duration_s"], and
    closes the op span with status (and error) attributes. Returns the
    result unchanged, so operations end with [finish frame @@ ...]. *)

val rollback_span : frame -> Op_error.t -> int
(** Open a ["rollback"] child span stamped with the triggering error
    (kind + rendered detail) and bump ["op.rollbacks"]. Close it with
    {!rollback_done} once the unwind completes. *)

val rollback_done : frame -> int -> unit

(** {1 Shared helpers} *)

val bad_spec : string -> ('a, Op_error.t) result

val ensure_alive : Controller.t -> Controller.nf -> (unit, Op_error.t) result
(** [Error (Nf_crashed _)] once the liveness monitor declared it dead. *)

val background :
  Controller.t -> (unit -> 'a) -> 'a Proc.Ivar.t
(** Run [f] in its own simulation process; the ivar resolves with its
    result (the [start] pattern of every operation). *)

val broadcast_put :
  Controller.t -> scope:Scope.t -> others:Controller.nf list ->
  (Filter.t * Chunk.t) list -> unit
(** Pipeline one put of [chunks] to every instance in [others] and wait
    for all acks, ignoring per-replica errors (a failed put to one
    replica must not stop propagation to the rest — {!Share}'s
    tolerance policy). No-op on an empty chunk list. *)

(** {1 The transfer core} *)

val transfer :
  frame ->
  src:Controller.nf ->
  dst:Controller.nf ->
  scope:Scope.t ->
  filter:Filter.t ->
  ?parallel:bool ->
  ?delete:bool ->
  ?late_lock:bool ->
  ?compress:bool ->
  ?record:(Filter.t * Chunk.t) list ref ->
  ?on_captured:(unit -> unit) ->
  ?on_deleted:(unit -> unit) ->
  ?on_installed:(unit -> unit) ->
  ?on_put_ack:(Filter.t -> unit) ->
  tally ->
  (unit, Op_error.t) result
(** One scoped state transfer from [src] to [dst]: get, optional del
    ([delete], move semantics; copy leaves the source untouched), put,
    with the chunks added to [tally] on success.

    With [parallel] (the §5.1.3 parallelizing optimization) the get
    streams and each piece's del/put is issued immediately; [record]
    then accumulates chunks {e newest-first} (rollback re-puts
    [List.rev]), [on_captured] fires when the get completes (before the
    pipelined calls drain), [on_deleted] never fires, and [on_put_ack]
    fires per chunk as its put is acked (early release hangs off this).
    The parallel [on_put_ack] is an {!Proc.Ivar.upon} callback on the
    put's ack, registered as the piece arrives: it runs where a reader
    registered at that point would resume, but outside any process, so
    it must not block — a blocking call in it raises
    [Proc.Not_in_process].
    Sequentially, [record] holds the chunks in arrival order and the
    hooks fire in capture → delete → install order, with [on_put_ack]
    called per chunk after install. [Scope.All] forces the sequential
    path, ignores [filter] (and [delete]: all-flows state is always
    relevant, §4.2) and never streams. *)
