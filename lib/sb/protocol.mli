(** Controller ⇄ NF wire protocol (the southbound API, §4.2–§4.3).

    The paper exchanges JSON over TCP; here messages travel over
    simulated FIFO channels. [Get_*] with [stream = true] is the
    parallelizing optimization (§5.1.3): the NF emits one [Piece] per
    chunk as it is serialized instead of a single bulk reply, letting
    the controller pipeline the matching put. [late_lock = true] is the
    late-locking half of the early-release optimization, and replaces a
    prior [Enable_events] on the whole move filter: the NF enables one
    drop-events filter on the get's filter that exempts the flows of its
    state snapshot until each one's chunk is serialized. A snapshot flow
    is processed normally until just before its export; a flow first
    seen after the snapshot is dropped and evented from the start, so
    no state the get does not export can grow at the source. A later
    [Disable_events] on the same filter removes the lock. *)

open Opennf_net
open Opennf_state

type event_action = Process | Buffer | Drop

type request =
  | Enable_events of { filter : Filter.t; action : event_action }
  | Disable_events of { filter : Filter.t }
  | Get_perflow of {
      req : int;
      filter : Filter.t;
      stream : bool;
      late_lock : bool;
      compress : bool;
    }
  | Put_perflow of { req : int; chunks : (Filter.t * Chunk.t) list }
  | Del_perflow of { req : int; flowids : Filter.t list }
  | Get_multiflow of { req : int; filter : Filter.t; stream : bool; compress : bool }
  | Put_multiflow of { req : int; chunks : (Filter.t * Chunk.t) list }
  | Del_multiflow of { req : int; flowids : Filter.t list }
  | Get_allflows of { req : int }
  | Put_allflows of { req : int; chunks : Chunk.t list }
  | Ping of { req : int }
      (** Liveness probe; answered with [Ack] through the NF's normal
          southbound work queue, so a wedged NF fails to answer. *)
  | Set_batching of { bytes : int option }
      (** Configure reply batching (§8.3 scalability knob): the NF
          coalesces streamed [Piece]s into one [Batch_reply] once the
          buffered payload reaches [bytes]; [None] disables batching
          (the default, preserving per-message behaviour exactly). *)

type reply =
  | Piece of { req : int; flowid : Filter.t; chunk : Chunk.t }
      (** One streamed chunk of an in-progress [Get_*]. *)
  | Done of { req : int; chunks : (Filter.t * Chunk.t) list }
      (** [Get_*] finished; carries the chunks when not streaming
          (all-flows chunks use [Filter.any] as flowid). *)
  | Ack of { req : int }  (** A [Put_*] or [Del_*] completed. *)
  | Event of {
      nf : string;
      packet : Packet.t;
      disposition : event_action;
          (** What the NF did with the packet (§4.3). *)
    }
  | Batch_reply of { items : reply list }
      (** Several replies coalesced into one wire message under the
          [Set_batching] byte budget; the controller charges its
          per-message cost once for the whole batch. Items are in send
          order and never nest. *)

val message_overhead : int
(** Fixed wire size (bytes) charged per protocol message, matching the
    paper's ≈128-byte JSON messages. *)

val batch_item_overhead : int
(** Per-item framing (bytes) inside a [Batch_reply]; each member costs
    its own size minus {!message_overhead} plus this delimiter. *)

val request_size : request -> int
val reply_size : reply -> int

val request_kind : request -> string
(** Constant-allocation message label for tracing taps. *)

val reply_kind : reply -> string
