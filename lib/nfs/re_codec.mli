(** Redundancy-elimination encoder/decoder (SmartRE-style, [16] in the
    paper).

    The encoder fingerprints packet payloads (all-flows state: the
    fingerprint table) and replaces repeated content with a reference;
    the decoder keeps a mirrored table and reconstructs. The paper uses
    this pair twice: as the motivating example for copy/consistency of
    all-flows state, and (§5.1.2) as an NF broken by reordering — an
    encoded packet arriving before the data packet it was encoded
    against is silently dropped and the decoder's store desynchronizes.

    Payload conventions: [encode_payload]/[decode] are pure helpers used
    by tests and the traffic generator. *)

module Encoder : sig
  type t

  val create : unit -> t
  val impl : t -> Opennf_sb.Nf_api.impl

  val encode_payload : t -> string -> string
  (** What the encoder would emit for this payload: either the payload
      itself (first sighting, fingerprint stored) or ["REF:<fp>"]. *)

  val store_size : t -> int
end

module Decoder : sig
  type t

  val create : unit -> t
  val impl : t -> Opennf_sb.Nf_api.impl

  val store_size : t -> int
  val decoded_count : t -> int

  val desync_count : t -> int
  (** Reference packets whose fingerprint was missing — each one is a
      silently lost packet and a diverged store. *)
end
