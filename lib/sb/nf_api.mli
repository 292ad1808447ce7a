(** The interface an NF implements to join OpenNF (§4.2).

    The controller never sees NF internals: it names state with filters
    and flowids, and the NF is responsible for gathering matching state
    ([export_*]) and for replacing-or-merging on import ([import_*]).
    Flowids are [Opennf_net.Filter.t] values whose present fields
    describe exactly the flow (5-tuple) or flow aggregate (host, ...)
    the chunk pertains to. *)

open Opennf_net
open Opennf_state

type impl = {
  kind : string;  (** NF type name, e.g. ["bro"]. *)
  process_packet : Packet.t -> unit;
  list_perflow : Filter.t -> Filter.t list;
      (** Flowids of all per-flow state matching the filter. *)
  export_perflow : Filter.t -> Chunk.t option;
      (** Capture the chunk for one flowid at this instant ([None] if the
          state vanished since [list_perflow]). *)
  import_perflow : Filter.t -> Chunk.t -> unit;
  delete_perflow : Filter.t -> unit;
  list_multiflow : Filter.t -> Filter.t list;
  export_multiflow : Filter.t -> Chunk.t option;
  import_multiflow : Filter.t -> Chunk.t -> unit;
      (** Must merge with existing state for the same flowid (§4.2:
          add counters, union sets, newest timestamp, ...). *)
  delete_multiflow : Filter.t -> unit;
  export_allflows : unit -> Chunk.t list;
  import_allflows : Chunk.t list -> unit;
      (** Must merge with existing all-flows state. *)
}
