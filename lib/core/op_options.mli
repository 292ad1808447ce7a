(** Options shared by the northbound operations (move/copy/share).

    One record instead of a per-operation flag zoo: [parallel] streams
    chunks and pipelines puts (§5.1.3), [early_release] adds late
    locking and per-flow release (move only; implies [parallel]),
    and [compress] runs state through the compressed-stream model
    (§8.3). *)

type t = {
  parallel : bool;
  early_release : bool;
  compress : bool;
}

val default : t
(** All optimizations off. *)

val make :
  ?parallel:bool ->
  ?early_release:bool ->
  ?compress:bool ->
  unit ->
  t
(** [early_release] forces [parallel] on, as in the paper. *)
