(** Fixed-bucket weighted histograms.

    The thesis presents invariance distributions as 10%-wide buckets whose
    contents are weighted by execution frequency (§III.D: "the average
    result, weighted by execution frequency, of each bucket is graphed; the
    y-axis entry is non-accumulative"). This module implements exactly that
    bucketing. *)

type t

(** [create ~buckets ~lo ~hi] divides [\[lo, hi\]] into [buckets] equal-width
    buckets. Raises if [buckets <= 0] or [hi <= lo]. *)
val create : buckets:int -> lo:float -> hi:float -> t

(** [add t x ~weight] accumulates [weight] into the bucket containing [x].
    Out-of-range samples clamp into the first/last bucket. *)
val add : t -> float -> weight:float -> unit

(** [bounds t i] is the [(lo, hi)] range of bucket [i]. *)
val bounds : t -> int -> float * float

(** Total weight collected in bucket [i]. *)
val weight : t -> int -> float

(** Sum of all bucket weights. *)
val total_weight : t -> float

(** [fraction t i] is [weight t i / total_weight t] (0 when empty). *)
val fraction : t -> int -> float

(** All fractions, index 0 first. *)
val fractions : t -> float array
