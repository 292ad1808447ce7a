module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
  let min t = t.min
  let max t = t.max

  let stddev t =
    if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.count - 1))

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f" t.count
      (mean t) t.min t.max (stddev t)

  (* Chan et al.'s parallel-variance combine: folding [b] into [a] gives
     the same count/mean/m2 as if every sample had been added to [a]. *)
  let merge a b =
    if b.count > 0 then
      if a.count = 0 then begin
        a.count <- b.count;
        a.mean <- b.mean;
        a.m2 <- b.m2;
        a.min <- b.min;
        a.max <- b.max
      end
      else begin
        let na = float_of_int a.count and nb = float_of_int b.count in
        let n = na +. nb in
        let delta = b.mean -. a.mean in
        a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
        a.mean <- a.mean +. (delta *. nb /. n);
        a.count <- a.count + b.count;
        if b.min < a.min then a.min <- b.min;
        if b.max > a.max then a.max <- b.max
      end
end

module Histogram = struct
  (* Fixed log-spaced buckets: [per_decade] buckets per decade from [lo]
     up, plus an underflow bucket 0 (x <= lo) and a final catch-all.
     Every histogram shares the one bucket layout, so [merge] is always
     an elementwise sum — no resampling, no retained sample lists. *)
  let per_decade = 8
  let decades = 21
  let lo = 1e-9
  let nbuckets = (per_decade * decades) + 2

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
    buckets : int array;
  }

  let create () =
    {
      count = 0;
      sum = 0.0;
      mn = infinity;
      mx = neg_infinity;
      buckets = Array.make nbuckets 0;
    }

  let bucket_of x =
    if x <= lo then 0
    else begin
      let i = 1 + int_of_float (log10 (x /. lo) *. float_of_int per_decade) in
      if i >= nbuckets then nbuckets - 1 else i
    end

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x;
    let i = bucket_of x in
    t.buckets.(i) <- t.buckets.(i) + 1

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let min t = t.mn
  let max t = t.mx

  (* Geometric midpoint of bucket [i], clamped into the observed range
     so tail quantiles never exceed the true extremes. *)
  let representative t i =
    let v =
      if i = 0 then lo
      else lo *. (10.0 ** ((float_of_int i -. 0.5) /. float_of_int per_decade))
    in
    Stdlib.min t.mx (Stdlib.max t.mn v)

  let quantile t p =
    if t.count = 0 then 0.0
    else begin
      let rank =
        let r = int_of_float (ceil (p *. float_of_int t.count)) in
        Stdlib.max 1 (Stdlib.min t.count r)
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < nbuckets do
        seen := !seen + t.buckets.(!i);
        incr i
      done;
      representative t (!i - 1)
    end

  let merge a b =
    if b.count > 0 then begin
      a.count <- a.count + b.count;
      a.sum <- a.sum +. b.sum;
      if b.mn < a.mn then a.mn <- b.mn;
      if b.mx > a.mx then a.mx <- b.mx;
      for i = 0 to nbuckets - 1 do
        a.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
      done
    end

  (* Worst-case multiplicative error of [quantile] against an exact
     nearest-rank percentile over the same samples: one bucket width. *)
  let relative_error = 10.0 ** (1.0 /. float_of_int per_decade)
end

module Reservoir = struct
  type t = { mutable samples : float list; mutable count : int }

  let create () = { samples = []; count = 0 }

  let add t x =
    t.samples <- x :: t.samples;
    t.count <- t.count + 1

  let count t = t.count

  let percentile t p =
    if t.count = 0 then 0.0
    else begin
      let arr = Array.of_list t.samples in
      (* Float.compare, not polymorphic compare: an order of magnitude
         cheaper per comparison and totally ordered under NaN. *)
      Array.sort Float.compare arr;
      let rank = int_of_float (ceil (p *. float_of_int t.count)) - 1 in
      let rank = Stdlib.max 0 (Stdlib.min (t.count - 1) rank) in
      arr.(rank)
    end

  let mean t =
    if t.count = 0 then 0.0
    else List.fold_left ( +. ) 0.0 t.samples /. float_of_int t.count

  let max t = List.fold_left Stdlib.max neg_infinity t.samples
end

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr ?(by = 1) t = t.v <- t.v + by
  let get t = t.v
end
