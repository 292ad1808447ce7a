exception Decode_error of string

let fail msg = raise (Decode_error msg)

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  (* Reusable encode scratch: chunk serialization on the get/put fast
     path runs millions of times per scenario, and a fresh [Buffer] per
     chunk (plus its internal growth copies) is pure minor-heap
     garbage. lib/ runs on one domain, so one module-level scratch
     buffer serves every encode; [with_scratch] hands it out cleared,
     and nested use (an encode inside an encode) falls back to a fresh
     buffer so reuse can never alias. *)
  type scratch = { buf : Buffer.t; mutable in_use : bool }

  let scratch = { buf = Buffer.create 4096; in_use = false }

  let with_scratch f =
    if scratch.in_use then f (Buffer.create 256)
    else begin
      scratch.in_use <- true;
      Buffer.clear scratch.buf;
      Fun.protect
        ~finally:(fun () -> scratch.in_use <- false)
        (fun () -> f scratch.buf)
    end

  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t (v land 0xFFFF);
    u16 t ((v lsr 16) land 0xFFFF)

  let i64 t v =
    (* Split once into two 32-bit halves instead of boxing a shifted
       Int64 per byte. *)
    u32 t (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
    u32 t (Int64.to_int (Int64.shift_right_logical v 32))

  (* Same wire bytes as [i64 (Int64.of_int v)] — arithmetic shifts
     sign-extend exactly like the Int64 widening — with no boxing. *)
  let int t v =
    u8 t v;
    u8 t (v asr 8);
    u8 t (v asr 16);
    u8 t (v asr 24);
    u8 t (v asr 32);
    u8 t (v asr 40);
    u8 t (v asr 48);
    u8 t (v asr 56)

  let f64 t v = i64 t (Int64.bits_of_float v)
  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    u32 t (String.length s);
    Buffer.add_string t s

  let list t f xs =
    u32 t (List.length xs);
    List.iter f xs

  let contents = Buffer.contents
  let length = Buffer.length
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }

  let u8 t =
    if t.pos >= String.length t.src then fail "u8: past end";
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  let u32 t =
    let lo = u16 t in
    let hi = u16 t in
    lo lor (hi lsl 16)

  let i64 t =
    let lo = u32 t in
    let hi = u32 t in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

  (* Box-free inverse of [Writer.int]: byte 7's high bits fall off the
     63-bit int exactly as [Int64.to_int] would drop them. *)
  let int t =
    let b0 = u8 t in
    let b1 = u8 t in
    let b2 = u8 t in
    let b3 = u8 t in
    let b4 = u8 t in
    let b5 = u8 t in
    let b6 = u8 t in
    let b7 = u8 t in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) lor (b4 lsl 32)
    lor (b5 lsl 40) lor (b6 lsl 48) lor (b7 lsl 56)

  let f64 t = Int64.float_of_bits (i64 t)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> fail (Printf.sprintf "bool: bad byte %d" n)

  let string t =
    let len = u32 t in
    if t.pos + len > String.length t.src then fail "string: past end";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let list t f =
    let n = u32 t in
    List.init n (fun _ -> f ())

  let at_end t = t.pos = String.length t.src
end
