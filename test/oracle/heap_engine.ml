(* A minimal discrete-event engine over an array-based binary min-heap
   ordered by (time, seq): O(log n) per operation, trivially correct.
   It has [Opennf_sim.Engine]'s schedule/now/run shape, so a test can
   run one schedule on both and demand the same dispatch order. *)

type event = { time : float; seq : int; thunk : unit -> unit }

type t = {
  mutable arr : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
}

let nil = { time = 0.0; seq = 0; thunk = ignore }
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () =
  {
    arr = Array.make 64 nil;
    size = 0;
    clock = 0.0;
    next_seq = 0;
    processed = 0;
  }

let swap arr i j =
  let tmp = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- tmp

let push t ev =
  if t.size = Array.length t.arr then begin
    let bigger = Array.make (2 * t.size) nil in
    Array.blit t.arr 0 bigger 0 t.size;
    t.arr <- bigger
  end;
  t.arr.(t.size) <- ev;
  t.size <- t.size + 1;
  let i = ref (t.size - 1) in
  while !i > 0 && before t.arr.(!i) t.arr.((!i - 1) / 2) do
    swap t.arr !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  let top = t.arr.(0) in
  t.size <- t.size - 1;
  t.arr.(0) <- t.arr.(t.size);
  t.arr.(t.size) <- nil;
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.arr.(l) t.arr.(!smallest) then smallest := l;
    if r < t.size && before t.arr.(r) t.arr.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap t.arr !i !smallest;
      i := !smallest
    end
  done;
  top

let now t = t.clock
let processed t = t.processed

let schedule t ~delay thunk =
  push t { time = t.clock +. delay; seq = t.next_seq; thunk };
  t.next_seq <- t.next_seq + 1

let run t =
  while t.size > 0 do
    let ev = pop t in
    t.clock <- ev.time;
    t.processed <- t.processed + 1;
    ev.thunk ()
  done
