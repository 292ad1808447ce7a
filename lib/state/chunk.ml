module Bytes_io = Opennf_util.Bytes_io
module Lz = Opennf_util.Lz

type t = { kind : string; data : string }

let v ~kind data = { kind; data }
let size t = String.length t.data + String.length t.kind

let encode ~kind build =
  (* Chunk encodes are the serialization fast path: build into the
     module-level scratch buffer instead of allocating a writer (and
     its growth copies) per chunk. *)
  Bytes_io.Writer.with_scratch (fun w ->
      build w;
      { kind; data = Bytes_io.Writer.contents w })

let reader t = Bytes_io.Reader.of_string t.data

let lz_suffix = "+lz"

let compress t =
  if Filename.check_suffix t.kind lz_suffix then t
  else { kind = t.kind ^ lz_suffix; data = Lz.compress t.data }

let decompress t =
  if Filename.check_suffix t.kind lz_suffix then
    {
      kind = Filename.chop_suffix t.kind lz_suffix;
      data = Lz.decompress t.data;
    }
  else t

let pp ppf t = Format.fprintf ppf "<%s:%dB>" t.kind (String.length t.data)
