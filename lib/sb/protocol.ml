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
  | Set_batching of { bytes : int option }

type reply =
  | Piece of { req : int; flowid : Filter.t; chunk : Chunk.t }
  | Done of { req : int; chunks : (Filter.t * Chunk.t) list }
  | Ack of { req : int }
  | Event of {
      nf : string;
      packet : Packet.t;
      disposition : event_action;
    }
  | Batch_reply of { items : reply list }

let message_overhead = 128
let batch_item_overhead = 8

(* Static strings so tracing taps never allocate a label. *)
let request_kind = function
  | Enable_events _ -> "enable_events"
  | Disable_events _ -> "disable_events"
  | Get_perflow _ -> "get_perflow"
  | Put_perflow _ -> "put_perflow"
  | Del_perflow _ -> "del_perflow"
  | Get_multiflow _ -> "get_multiflow"
  | Put_multiflow _ -> "put_multiflow"
  | Del_multiflow _ -> "del_multiflow"
  | Get_allflows _ -> "get_allflows"
  | Put_allflows _ -> "put_allflows"
  | Ping _ -> "ping"
  | Set_batching _ -> "set_batching"

let reply_kind = function
  | Piece _ -> "piece"
  | Done _ -> "done"
  | Ack _ -> "ack"
  | Event _ -> "event"
  | Batch_reply _ -> "batch_reply"

let chunks_size chunks =
  List.fold_left (fun acc (_, c) -> acc + Chunk.size c + 32) 0 chunks

let request_size = function
  | Enable_events _ | Disable_events _ | Ping _ | Set_batching _ ->
    message_overhead
  | Get_perflow _ | Get_multiflow _ | Get_allflows _ -> message_overhead
  | Put_perflow { chunks; _ } | Put_multiflow { chunks; _ } ->
    message_overhead + chunks_size chunks
  | Del_perflow { flowids; _ } | Del_multiflow { flowids; _ } ->
    message_overhead + (32 * List.length flowids)
  | Put_allflows { chunks; _ } ->
    message_overhead
    + List.fold_left (fun acc c -> acc + Chunk.size c) 0 chunks

(* A batch pays the fixed framing once; each member costs its own size
   minus the per-message overhead it no longer needs, plus a small
   per-item delimiter. *)
let rec reply_size = function
  | Piece { chunk; _ } -> message_overhead + Chunk.size chunk + 32
  | Done { chunks; _ } -> message_overhead + chunks_size chunks
  | Ack _ -> message_overhead
  | Event { packet; _ } -> message_overhead + packet.Packet.wire_size
  | Batch_reply { items } ->
    List.fold_left
      (fun acc r -> acc + reply_size r - message_overhead + batch_item_overhead)
      message_overhead items
