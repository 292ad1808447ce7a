module Stats = Opennf_util.Stats

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_value b = function
  | Trace.Int i -> Buffer.add_string b (string_of_int i)
  | Trace.Float f -> Buffer.add_string b (Printf.sprintf "%.9g" f)
  | Trace.Str s -> buf_add_json_string b s
  | Trace.Bool v -> Buffer.add_string b (if v then "true" else "false")

let add_args b ~parent attrs =
  Buffer.add_string b "\"args\":{";
  let first = ref true in
  let comma () = if !first then first := false else Buffer.add_char b ',' in
  if parent <> 0 then begin
    comma ();
    Buffer.add_string b (Printf.sprintf "\"parent\":%d" parent)
  end;
  Array.iter
    (fun (k, v) ->
      comma ();
      buf_add_json_string b k;
      Buffer.add_char b ':';
      add_value b v)
    attrs;
  Buffer.add_char b '}'

(* Chrome trace_event JSON. Spans become async nestable "b"/"e" pairs
   matched by cat+id — simulated processes interleave, so spans are not
   stack-nested and the sync "B"/"E" phases would mispair. Timestamps
   are virtual microseconds; wall stamps are never emitted because they
   would break byte-identical exports. *)
let chrome tr =
  (* End events carry no cat/name of their own: resolve from the open. *)
  let opens = Hashtbl.create 64 in
  Trace.iter tr (fun ev ->
      if ev.Trace.kind = Trace.Begin then Hashtbl.replace opens ev.Trace.id ev);
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  Trace.iter tr (fun ev ->
      let ph, cat, name =
        match ev.Trace.kind with
        | Trace.Begin -> ("b", ev.Trace.cat, ev.Trace.name)
        | Trace.End -> (
          match Hashtbl.find_opt opens ev.Trace.id with
          | Some o -> ("e", o.Trace.cat, o.Trace.name)
          | None -> ("e", "?", "?"))
        | Trace.Instant -> ("i", ev.Trace.cat, ev.Trace.name)
      in
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b "\n{";
      Buffer.add_string b "\"ph\":\"";
      Buffer.add_string b ph;
      Buffer.add_string b "\",\"cat\":";
      buf_add_json_string b cat;
      Buffer.add_string b ",\"name\":";
      buf_add_json_string b name;
      Buffer.add_string b
        (Printf.sprintf ",\"ts\":%.3f" (ev.Trace.vt *. 1e6));
      if ev.Trace.kind <> Trace.Instant then
        Buffer.add_string b (Printf.sprintf ",\"id\":%d" ev.Trace.id);
      if ev.Trace.kind = Trace.Instant then Buffer.add_string b ",\"s\":\"g\"";
      Buffer.add_string b ",\"pid\":1,\"tid\":1,";
      add_args b ~parent:ev.Trace.parent ev.Trace.attrs;
      Buffer.add_char b '}');
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Human-readable dump: one line per event in emission order, virtual
   time first, indent-free (spans interleave across processes). *)
let timeline tr =
  let opens = Hashtbl.create 64 in
  Trace.iter tr (fun ev ->
      if ev.Trace.kind = Trace.Begin then Hashtbl.replace opens ev.Trace.id ev);
  let b = Buffer.create 4096 in
  Trace.iter tr (fun ev ->
      let tag, cat, name =
        match ev.Trace.kind with
        | Trace.Begin -> ("open ", ev.Trace.cat, ev.Trace.name)
        | Trace.End -> (
          match Hashtbl.find_opt opens ev.Trace.id with
          | Some o -> ("close", o.Trace.cat, o.Trace.name)
          | None -> ("close", "?", "?"))
        | Trace.Instant -> ("inst ", ev.Trace.cat, ev.Trace.name)
      in
      Buffer.add_string b
        (Printf.sprintf "%12.6f  %s %-6s %-20s" ev.Trace.vt tag cat name);
      if ev.Trace.id <> 0 then
        Buffer.add_string b (Printf.sprintf " #%d" ev.Trace.id);
      if ev.Trace.parent <> 0 then
        Buffer.add_string b (Printf.sprintf " ^%d" ev.Trace.parent);
      Array.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Format.asprintf " %s=%a" k Trace.pp_value v))
        ev.Trace.attrs;
      Buffer.add_char b '\n');
  Buffer.contents b

let metrics_json m =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  let first = ref true in
  List.iter
    (fun (n, v) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_add_json_string b n;
      Buffer.add_string b (Printf.sprintf ": %d" v))
    (Metrics.counters m);
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  first := true;
  List.iter
    (fun (n, last, peak) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_add_json_string b n;
      Buffer.add_string b
        (Printf.sprintf ": {\"last\": %.6f, \"peak\": %.6f}" last peak))
    (Metrics.gauges m);
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  first := true;
  List.iter
    (fun (n, h) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_add_json_string b n;
      Buffer.add_string b
        (Printf.sprintf
           ": {\"count\": %d, \"sum\": %.9f, \"mean\": %.9f, \"p50\": %.9f, \
            \"p90\": %.9f, \"p99\": %.9f, \"max\": %.9f}"
           (Stats.Histogram.count h) (Stats.Histogram.sum h)
           (Stats.Histogram.mean h)
           (Stats.Histogram.quantile h 0.50)
           (Stats.Histogram.quantile h 0.90)
           (Stats.Histogram.quantile h 0.99)
           (if Stats.Histogram.count h = 0 then 0.0 else Stats.Histogram.max h)))
    (Metrics.hists m);
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

(* OpenMetrics text exposition. Instrument names sanitize to the metric
   charset ([a-zA-Z0-9_:]); histograms expose as summaries with the
   log-bucket quantiles (p50/p90/p99), an exact _sum and a _count, so a
   scraper sees real tail latencies, not just totals. *)
let om_name n =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    n

let om_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let openmetrics m =
  let b = Buffer.create 2048 in
  List.iter
    (fun (n, v) ->
      let n = om_name n in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" n v))
    (Metrics.counters m);
  List.iter
    (fun (n, last, peak) ->
      let n = om_name n in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (om_float last));
      Buffer.add_string b (Printf.sprintf "# TYPE %s_peak gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s_peak %s\n" n (om_float peak)))
    (Metrics.gauges m);
  List.iter
    (fun (n, h) ->
      let n = om_name n in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun q ->
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"%.2f\"} %s\n" n q
               (om_float (Stats.Histogram.quantile h q))))
        [ 0.50; 0.90; 0.99 ];
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (om_float (Stats.Histogram.sum h)));
      Buffer.add_string b
        (Printf.sprintf "%s_count %d\n" n (Stats.Histogram.count h)))
    (Metrics.hists m);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
