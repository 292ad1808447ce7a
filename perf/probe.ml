(* Measurement instruments of the benchmark: a monotonic clock, a
   process CPU clock, the span recorder of the traced run, the timing
   wrapper around NF implementations, and the GC pause counters read
   from the runtime's event ring.

   Everything here lives in the benchmark's own files and only times
   calls into the library's public functions; nothing is added inside
   the program. A disabled recorder ([off]) makes every entry point a
   direct call, which is what the measured runs use. *)

module Nf_api = Opennf_sb.Nf_api

(* Nanoseconds on CLOCK_MONOTONIC. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

external cpu_clock : unit -> (int64[@unboxed])
  = "perf_cpu_clock_bytecode" "perf_cpu_clock_native"
  [@@noalloc]

(* Nanoseconds of this process's CPU time (CLOCK_PROCESS_CPUTIME_ID). *)
let cpu_ns () = Int64.to_float (cpu_clock ())

(* --- spans -------------------------------------------------------------- *)

(* Wall time the NF wrapper observed inside the innermost open span,
   per call kind: summed, not recorded call by call. *)
type nf_acc = {
  mutable process_ns : float;
  mutable process_n : int;
  mutable export_ns : float;
  mutable export_n : int;  (** Chunks returned. *)
  mutable import_ns : float;
  mutable import_n : int;  (** Chunks installed. *)
  mutable other_ns : float;  (** list_* and delete_* calls. *)
  mutable other_n : int;
}

let nf_acc () =
  {
    process_ns = 0.0;
    process_n = 0;
    export_ns = 0.0;
    export_n = 0;
    import_ns = 0.0;
    import_n = 0;
    other_ns = 0.0;
    other_n = 0;
  }

let nf_total a = a.process_ns +. a.export_ns +. a.import_ns +. a.other_ns

type frame = {
  f_layer : string;
  f_name : string;
  f_start : float;
  mutable f_child : float;  (* Wall of direct children, nf sums included. *)
  f_nf : nf_acc;
}

(* One Chrome "complete" event. Thread 1 holds properly nested spans
   (iterations, windows, setups, checks, replays and the NF sums inside
   them); thread 2 holds operation intervals, which overlap the engine
   windows that drive them and so count toward no self time. *)
type event = {
  e_name : string;
  e_layer : string;
  e_tid : int;
  e_start : float;
  e_dur : float;
  e_args : (string * string) list;
}

type t = {
  on : bool;
  origin : float;
  mutable stack : frame list;
  mutable events : event list;
  self : (string, float) Hashtbl.t;  (* Layer -> self time (ns). *)
  mutable closed_nf : nf_acc;  (* NF sums of the span closed last. *)
}

let create () =
  {
    on = true;
    origin = now_ns ();
    stack = [];
    events = [];
    self = Hashtbl.create 16;
    closed_nf = nf_acc ();
  }

let off = { (create ()) with on = false }

let add_self t layer ns =
  Hashtbl.replace t.self layer
    (ns +. Option.value ~default:0.0 (Hashtbl.find_opt t.self layer))

let self_ns t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.self layer)

let emit t e = t.events <- e :: t.events

(* Close [fr]: its NF sums become child events laid end to end from the
   frame's start (their true placement is unknown, their total is
   exact), its self time is charged to its layer, and its wall to the
   parent's children. *)
let close t fr =
  let stop = now_ns () in
  let dur = stop -. fr.f_start in
  let a = fr.f_nf in
  let cursor = ref fr.f_start in
  let nf_child name ns n =
    if n > 0 then begin
      emit t
        {
          e_name = "nf." ^ name;
          e_layer = "nf";
          e_tid = 1;
          e_start = !cursor;
          e_dur = ns;
          e_args = [ ("calls", string_of_int n) ];
        };
      cursor := !cursor +. ns
    end
  in
  nf_child "process_packet" a.process_ns a.process_n;
  nf_child "export" a.export_ns a.export_n;
  nf_child "import" a.import_ns a.import_n;
  nf_child "list_delete" a.other_ns a.other_n;
  let nf = nf_total a in
  t.closed_nf <- a;
  add_self t "nf" nf;
  add_self t fr.f_layer (dur -. fr.f_child -. nf);
  (match t.stack with
  | parent :: _ -> parent.f_child <- parent.f_child +. dur
  | [] -> ());
  emit t
    {
      e_name = fr.f_name;
      e_layer = fr.f_layer;
      e_tid = 1;
      e_start = fr.f_start;
      e_dur = dur;
      e_args = [];
    };
  dur

(* [span_timed t ~layer ~name f] runs [f] inside a nested span; returns
   [f]'s result and the span's wall (ns). *)
let span_timed t ~layer ~name f =
  if not t.on then begin
    let t0 = now_ns () in
    let r = f () in
    (r, now_ns () -. t0)
  end
  else begin
    let fr =
      { f_layer = layer; f_name = name; f_start = now_ns (); f_child = 0.0; f_nf = nf_acc () }
    in
    t.stack <- fr :: t.stack;
    let pop () = t.stack <- List.tl t.stack in
    match f () with
    | r ->
      pop ();
      (r, close t fr)
    | exception e ->
      pop ();
      ignore (close t fr);
      raise e
  end

let span t ~layer ~name f = fst (span_timed t ~layer ~name f)

(* An operation interval (thread 2): from the call to its return, which
   for a blocking northbound call spans many engine events. *)
let interval t ~name f =
  if not t.on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    emit t
      {
        e_name = name;
        e_layer = "op";
        e_tid = 2;
        e_start = t0;
        e_dur = now_ns () -. t0;
        e_args = [];
      };
    r
  end

let intervals t =
  List.filter_map
    (fun e -> if e.e_tid = 2 then Some e.e_dur else None)
    t.events

(* --- NF timing wrapper -------------------------------------------------- *)

let charge t f =
  match t.stack with fr :: _ -> f fr.f_nf | [] -> ()

(* Time every field of an NF implementation, charging the wall to the
   innermost open span. [sample] runs before each packet, so the caller
   can read runtime queue depths at the moments packets are served. *)
let wrap t ?(sample = ignore) (i : Nf_api.impl) : Nf_api.impl =
  if not t.on then i
  else
    let timed kind f x =
      let t0 = now_ns () in
      let r = f x in
      let ns = now_ns () -. t0 in
      charge t (fun a -> kind a ns r);
      r
    in
    let other a ns _ =
      a.other_ns <- a.other_ns +. ns;
      a.other_n <- a.other_n + 1
    in
    let export a ns r =
      a.export_ns <- a.export_ns +. ns;
      a.export_n <- a.export_n + r
    in
    let import a ns () =
      a.import_ns <- a.import_ns +. ns;
      a.import_n <- a.import_n + 1
    in
    let some = function Some _ -> 1 | None -> 0 in
    {
      i with
      process_packet =
        (fun p ->
          sample ();
          timed
            (fun a ns () ->
              a.process_ns <- a.process_ns +. ns;
              a.process_n <- a.process_n + 1)
            i.process_packet p);
      list_perflow = timed other i.list_perflow;
      export_perflow =
        (fun f ->
          timed (fun a ns r -> export a ns (some r)) i.export_perflow f);
      import_perflow = (fun f c -> timed import (i.import_perflow f) c);
      delete_perflow = timed other i.delete_perflow;
      list_multiflow = timed other i.list_multiflow;
      export_multiflow =
        (fun f ->
          timed (fun a ns r -> export a ns (some r)) i.export_multiflow f);
      import_multiflow = (fun f c -> timed import (i.import_multiflow f) c);
      delete_multiflow = timed other i.delete_multiflow;
      export_allflows =
        timed (fun a ns r -> export a ns (List.length r)) i.export_allflows;
      import_allflows = timed import i.import_allflows;
    }

(* --- Chrome trace ------------------------------------------------------- *)

let chrome t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  Buffer.add_string buf
    "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
     \"args\": {\"name\": \"layers\"}},\n\
     {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, \
     \"args\": {\"name\": \"operations\"}}";
  List.iter
    (fun e ->
      Printf.bprintf buf
        ",\n{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
        e.e_name e.e_layer e.e_tid
        ((e.e_start -. t.origin) /. 1000.0)
        (e.e_dur /. 1000.0)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) e.e_args)))
    (List.rev t.events);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* --- GC pauses from the runtime event ring ----------------------------- *)

(* Wall the runtime spent in minor collections and major slices, read
   from [Runtime_events]. Callers [take] right before a timed window
   (discarding) and right after it (keeping). *)
module Gc_clock = struct
  type g = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor_ns : float ref;
    major_ns : float ref;
  }

  let start () =
    Runtime_events.start ();
    let minor_ns = ref 0.0 and major_ns = ref 0.0 in
    let minor_begin = ref 0L and major_begin = ref 0L in
    let ts t = Runtime_events.Timestamp.to_int64 t in
    let since t0 t = Int64.to_float (Int64.sub (ts t) t0) in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ t phase ->
          match phase with
          | Runtime_events.EV_MINOR -> minor_begin := ts t
          | Runtime_events.EV_MAJOR_SLICE -> major_begin := ts t
          | _ -> ())
        ~runtime_end:(fun _ t phase ->
          match phase with
          | Runtime_events.EV_MINOR -> minor_ns := !minor_ns +. since !minor_begin t
          | Runtime_events.EV_MAJOR_SLICE ->
            major_ns := !major_ns +. since !major_begin t
          | _ -> ())
        ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; minor_ns; major_ns }

  (* Drain the ring and return the (minor, major) ns read since the last
     [take]. *)
  let take g =
    ignore (Runtime_events.read_poll g.cursor g.callbacks None);
    let r = (!(g.minor_ns), !(g.major_ns)) in
    g.minor_ns := 0.0;
    g.major_ns := 0.0;
    r
end
