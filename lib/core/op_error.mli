(** Typed failures of northbound operations and southbound calls.

    Operations ([Move.run], [Copy_op.run], [Share.start], ...) and the
    controller's scope-indexed southbound API return
    [(_, Op_error.t) result] instead of wedging the simulation or
    raising [Invalid_argument]. *)

type t =
  | Nf_crashed of { nf : string }
      (** The liveness monitor declared the NF dead (K consecutive
          missed deadlines, or a probe failure). *)
  | Timeout of { nf : string; after : float }
      (** A call exhausted its deadline and retries, but the NF was not
          (yet) declared dead. *)
  | Aborted of { reason : string }
      (** The operation was abandoned mid-protocol and rolled back. *)
  | Bad_spec of { reason : string }
      (** The request was invalid before any message was sent. *)

exception Op_failed of t
(** Raised by {!ok_exn}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val kind : t -> string
(** Constant constructor label (["timeout"], ["nf_crashed"], ...) for
    metrics names and trace attributes; never allocates. *)

val ok_exn : ('a, t) result -> 'a
(** [Ok v -> v]; [Error e -> raise (Op_failed e)]. The one unwrap for
    fault-free callers, where a typed error is a wiring bug. *)
