type t = {
  parallel : bool;
  early_release : bool;
  compress : bool;
}

let default = { parallel = false; early_release = false; compress = false }

let make ?(parallel = false) ?(early_release = false) ?(compress = false) () =
  (* Early release only makes sense when chunks stream. *)
  { parallel = parallel || early_release; early_release; compress }
