(* The reference task: a fixed piece of work, independent of the
   library, run right before and right after every timed set-up and run
   window, so that the end-to-end times can be expressed relative to
   how fast this machine ran at that moment.

   A shared virtual machine's speed drifts by tens of percent over
   minutes, and in bursts of a few seconds (other tenants contend for
   the host's cores and caches). The drift slows the reference task and
   the workload alike, so the ratio of their CPU times stays put while
   each alone moves. The task does what the simulator does most — pops
   a binary heap of pending events and probes a table of per-flow
   records far larger than the caches — and allocates nothing, so its
   time does not depend on the heap the workload leaves behind. Its
   arrays are built once, before any testbed, outside the OCaml heap,
   so they count neither toward the workload's peak heap nor in its
   collections. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

type t = {
  table : ints;  (* 16 MB of per-flow counters. *)
  heap : ints;  (* A binary min-heap of event times. *)
}

let table_bits = 21
let heap_size = 4096

(* Events per repetition. *)
let events = 50_000

(* The fixed scale (ms) that turns a ratio to the reference task back
   into milliseconds: of the order of one repetition's CPU time, which
   was 5.0–6.0 ms on a 2-vCPU Intel Xeon virtual machine. Changing it
   rescales every calibrated time. *)
let nominal_ms = 4.6

let create () =
  let table = Array1.create int c_layout (1 lsl table_bits) in
  Array1.fill table 0;
  (* Ascending times form a valid heap. *)
  let heap = Array1.create int c_layout heap_size in
  for i = 0 to heap_size - 1 do
    heap.{i} <- i
  done;
  { table; heap }

(* Pop the earliest event, bump its flow's counter, push its successor:
   [events] times over. Returns a checksum, so the work is not elided. *)
let rep t =
  let (h : ints) = t.heap and (tbl : ints) = t.table in
  let mask = (1 lsl table_bits) - 1 in
  let acc = ref 0 in
  for i = 1 to events do
    let top = h.{0} in
    let slot = ((top * 0x9e3779b1) + i) land mask in
    let v = tbl.{slot} + 1 in
    tbl.{slot} <- v;
    acc := !acc + v;
    (* The successor replaces the root and sifts down. *)
    let x = top + 1 + ((slot lxor i) land 0xfff) in
    let j = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !j) + 1 in
      if l >= heap_size then stop := true
      else begin
        let c = if l + 1 < heap_size && h.{l + 1} < h.{l} then l + 1 else l in
        if h.{c} < x then begin
          h.{!j} <- h.{c};
          j := c
        end
        else stop := true
      end
    done;
    h.{!j} <- x
  done;
  !acc
