(** Online statistics accumulators used by the measurement harness. *)

module Summary : sig
  type t
  (** Streaming summary: count, mean (Welford), min, max, variance. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val stddev : t -> float
  val pp : Format.formatter -> t -> unit

  val merge : t -> t -> unit
  (** [merge a b] folds [b]'s samples into [a] (count, mean, variance,
      min, max) exactly as if they had been [add]ed to [a]. [b] is
      unchanged. *)
end

module Histogram : sig
  type t
  (** Streaming histogram over fixed log-spaced buckets (8 per decade
      from 1e-9). Constant memory regardless of sample count — the
      million-flow replacement for keeping a {!Reservoir} around — and
      every instance shares the one bucket layout, so histograms merge
      bucketwise. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  val sum : t -> float
  (** Exact running sum of every sample added, in addition order — the
      float you get by folding [+.] over the observations yourself, so
      external per-item totals can be reconciled against it exactly. *)

  val mean : t -> float
  (** Exact (from a running sum), not bucket-approximated. 0 if empty. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val quantile : t -> float -> float
  (** [quantile t 0.99]: nearest-rank over the buckets; the answer is
      the matched bucket's geometric midpoint clamped to the observed
      min/max, so it is within {!relative_error} (multiplicative) of the
      exact sample percentile. 0 when empty. *)

  val merge : t -> t -> unit
  (** [merge a b] adds [b]'s buckets into [a]; [b] is unchanged. *)

  val relative_error : float
  (** Worst-case ratio between {!quantile} and the exact nearest-rank
      percentile of the same samples (one bucket width, ~1.33). *)
end

module Reservoir : sig
  type t
  (** Keeps all samples; supports exact percentiles. Intended for the
      bounded sample counts of simulation experiments. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t 0.99]; nearest-rank on the sorted samples. 0 when
      empty. *)

  val mean : t -> float
  val max : t -> float
end

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val get : t -> int
end
