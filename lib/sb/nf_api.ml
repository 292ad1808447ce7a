open Opennf_net
open Opennf_state

type impl = {
  kind : string;
  process_packet : Packet.t -> unit;
  list_perflow : Filter.t -> Filter.t list;
  export_perflow : Filter.t -> Chunk.t option;
  import_perflow : Filter.t -> Chunk.t -> unit;
  delete_perflow : Filter.t -> unit;
  list_multiflow : Filter.t -> Filter.t list;
  export_multiflow : Filter.t -> Chunk.t option;
  import_multiflow : Filter.t -> Chunk.t -> unit;
  delete_multiflow : Filter.t -> unit;
  export_allflows : unit -> Chunk.t list;
  import_allflows : Chunk.t list -> unit;
}
