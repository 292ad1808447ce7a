(* Token stream format:
   - 0x00 len(u16) bytes...      literal run (len >= 1)
   - 0x01 dist(u16) len(u16)     back-reference: copy [len] bytes from
                                 [dist] bytes behind the output cursor
   Matches are found with a 4-byte hash table, greedy parsing. *)

let min_match = 4
let min_gainful = 6
(* A back-reference costs 5 bytes, so shorter matches are kept literal. *)
let max_match = 0xFFFF
let max_dist = 0xFFFF
let hash_bits = 15
let hash_size = 1 lsl hash_bits

let hash4 s i =
  let b k = Char.code s.[i + k] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (v * 2654435761) lsr (31 - hash_bits) land (hash_size - 1)

(* The match-finder hash table is reused across calls: a fresh
   32k-slot array per [compress] call was the single largest allocation
   on the serialization fast path. Slots are validated by a generation
   stamp instead of refilled, so reuse costs nothing. The table (512 KB)
   is built on first use, so runs that never compress never pay for it.
   Module-level scratch is sound because lib/ runs on one domain. *)
type matcher = { tbl : int array; gen_of : int array; mutable gen : int }

let matcher =
  lazy
    {
      tbl = Array.make hash_size 0;
      gen_of = Array.make hash_size 0;
      gen = 0;
    }

type out = { buf : Buffer.t; mutable in_use : bool }

let out = { buf = Buffer.create 4096; in_use = false }

let with_out f =
  if out.in_use then f (Buffer.create 256)
  else begin
    out.in_use <- true;
    Buffer.clear out.buf;
    Fun.protect ~finally:(fun () -> out.in_use <- false) (fun () -> f out.buf)
  end

(* Greedy parse shared by [compress] (emitting tokens) and
   [compress_length] (counting bytes): one algorithm, so the length-only
   path is exact by construction. [literal start stop] is only called
   with a non-empty range. *)
let scan s ~literal ~backref =
  let n = String.length s in
  if n < min_match then begin
    if n > 0 then literal 0 n
  end
  else begin
    let m = Lazy.force matcher in
    m.gen <- m.gen + 1;
    let gen = m.gen in
    let tbl = m.tbl and gen_of = m.gen_of in
    let lit_start = ref 0 in
    let i = ref 0 in
    while !i + min_match <= n do
      let h = hash4 s !i in
      let cand = if gen_of.(h) = gen then tbl.(h) else -1 in
      tbl.(h) <- !i;
      gen_of.(h) <- gen;
      let matched =
        cand >= 0
        && !i - cand <= max_dist
        && s.[cand] = s.[!i]
        && s.[cand + 1] = s.[!i + 1]
        && s.[cand + 2] = s.[!i + 2]
        && s.[cand + 3] = s.[!i + 3]
      in
      let len = ref 0 in
      if matched then begin
        (* Extend the match as far as possible. *)
        len := min_match;
        while
          !len < max_match
          && !i + !len < n
          && s.[cand + !len] = s.[!i + !len]
        do
          incr len
        done
      end;
      if matched && !len >= min_gainful then begin
        if !i > !lit_start then literal !lit_start !i;
        backref ~dist:(!i - cand) ~len:!len;
        i := !i + !len;
        lit_start := !i
      end
      else incr i
    done;
    if n > !lit_start then literal !lit_start n
  end

let put_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let flush_literals buf s lit_start lit_end =
  let pos = ref lit_start in
  while !pos < lit_end do
    let len = min (lit_end - !pos) 0xFFFF in
    Buffer.add_char buf '\x00';
    put_u16 buf len;
    Buffer.add_substring buf s !pos len;
    pos := !pos + len
  done

let compress s =
  with_out (fun buf ->
      scan s
        ~literal:(fun start stop -> flush_literals buf s start stop)
        ~backref:(fun ~dist ~len ->
          Buffer.add_char buf '\x01';
          put_u16 buf dist;
          put_u16 buf len);
      Buffer.contents buf)

(* [String.length (compress s)] without building the output. *)
let compress_length s =
  let total = ref 0 in
  scan s
    ~literal:(fun start stop ->
      let len = stop - start in
      total := !total + len + (3 * ((len + 0xFFFE) / 0xFFFF)))
    ~backref:(fun ~dist:_ ~len:_ -> total := !total + 5);
  !total

let get_u16 s i = Char.code s.[i] lor (Char.code s.[i + 1] lsl 8)

let decompress s =
  let n = String.length s in
  with_out (fun out ->
      let i = ref 0 in
      while !i < n do
        match s.[!i] with
        | '\x00' ->
          if !i + 3 > n then invalid_arg "Lz.decompress: truncated literal";
          let len = get_u16 s (!i + 1) in
          if !i + 3 + len > n then
            invalid_arg "Lz.decompress: truncated literal";
          Buffer.add_substring out s (!i + 3) len;
          i := !i + 3 + len
        | '\x01' ->
          if !i + 5 > n then invalid_arg "Lz.decompress: truncated match";
          let dist = get_u16 s (!i + 1) in
          let len = get_u16 s (!i + 3) in
          let start = Buffer.length out - dist in
          if start < 0 then invalid_arg "Lz.decompress: bad distance";
          (* Copy byte-by-byte: source may overlap destination. *)
          for k = 0 to len - 1 do
            Buffer.add_char out (Buffer.nth out (start + k))
          done;
          i := !i + 5
        | _ -> invalid_arg "Lz.decompress: bad token"
      done;
      Buffer.contents out)

let ratio s =
  let n = String.length s in
  if n = 0 then 1.0 else float_of_int (compress_length s) /. float_of_int n

let wire_size_with_dict ~dict s =
  if String.length s = 0 then 0
  else begin
    let base = compress_length dict in
    let full = compress_length (dict ^ s) in
    max 4 (full - base)
  end

let stream_ratio chunks =
  let total = List.fold_left (fun acc s -> acc + String.length s) 0 chunks in
  if total = 0 then 1.0
  else begin
    let wire, _ =
      List.fold_left
        (fun (acc, dict) s -> (acc + wire_size_with_dict ~dict s, s))
        (0, "") chunks
    in
    float_of_int wire /. float_of_int total
  end
