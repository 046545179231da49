(** The Top-N-Value (TNV) table, the paper's central data structure.

    A TNV table tracks the N most frequent values an instruction (or memory
    location) produces, with occurrence counts. The paper's replacement
    policy ({!Lfu_clear}) is least-frequently-used with periodic clearing:
    the table is conceptually split into a {e steady} top half and a
    {e replacement} bottom half; every [clear_interval] recorded values the
    entries outside the steady half are evicted so that newly hot values can
    climb in, while established top values keep their counts. Pure {!Lfu}
    and {!Lru} replacement are provided for the ablation experiment (E08).

    Counts in the table are occurrences observed {e while the value held a
    slot}; the [total] includes values that were dropped because the table
    was full, so [covered t <= total t] always holds, and the invariance
    metrics are conservative.

    {!add} is the profiler's per-event hot path and is engineered to be
    allocation-free under every policy, evictions included: a small
    open-addressing value->slot index makes the hit path one
    multiplicative hash plus (usually) one compare, values are stored
    unboxed, and the periodic clear selects the surviving top half in
    place instead of sorting a freshly allocated permutation. Ties on
    count during a clear keep the lowest-numbered slot. *)

type policy =
  | Lfu_clear  (** the paper's policy: LFU with periodic clearing *)
  | Lfu  (** replace the least-counted entry on every miss *)
  | Lru  (** replace the least-recently-seen entry on every miss *)

type t

(** [create ~capacity ()] makes an empty table. [capacity] must be
    positive. [clear_interval] (default [2000]) is the period, counted in
    {!add} calls to this table, of the {!Lfu_clear} clearing step; ignored
    by the other policies. *)
val create : ?policy:policy -> ?clear_interval:int -> capacity:int -> unit -> t

val policy : t -> policy
val capacity : t -> int
val clear_interval : t -> int

(** Occupancy cap currently in force. Equals {!capacity} until a
    {!Budget} degradation step: under memory pressure a [Lfu_clear]
    table halves its live capacity per degradation level at the next
    periodic clear (saturating at 1), keeping its allocated arrays but
    admitting fewer candidates — the paper's TNV, shrunk in place.
    {!reset} restores the full capacity. *)
val live_capacity : t -> int

(** Record one occurrence of [v]. *)
val add : t -> int64 -> unit

(** Like {!add}, and returns [true] iff [v] already held a slot before the
    call. A [true] result proves the value was seen before, letting callers
    skip their own seen-before bookkeeping on the hit path; [false] means
    freshly inserted, dropped, or admitted by eviction. *)
val add_mem : t -> int64 -> bool

(** Occurrences recorded in total (hits and drops). *)
val total : t -> int

(** Sum of in-table counts. *)
val covered : t -> int

(** Occupied entries in canonical order: count descending, then value
    ascending. The order is a pure function of the multiset of entries
    (never of slot layout or insertion history), so two tables holding the
    same values with the same counts render identically — the property
    byte-identical merged profiles rely on. *)
val entries : t -> (int64 * int) array

(** Most frequent entry, when any value has been recorded. *)
val top : t -> (int64 * int) option

(** Fraction of all occurrences belonging to the top value — the paper's
    Inv-Top metric. 0 before any [add]. *)
val inv_top : t -> float

(** Fraction of all occurrences belonging to any in-table value — Inv-All. *)
val inv_all : t -> float

(** Periodic clears performed so far ({!Lfu_clear} only). *)
val clears : t -> int

(** Evictions performed so far ({!Lfu} and {!Lru} only; the periodic clear
    is counted by {!clears}, not here). *)
val replacements : t -> int

(** [merge_entries a b] is the count-weighted union of two {!entries}
    arrays in canonical (count desc, value asc) order. Pure and
    deterministic: the result depends only on the multisets of entries. *)
val merge_entries : (int64 * int) array -> (int64 * int) array -> (int64 * int) array

(** [merge a b] is a fresh table holding the count-weighted union of the
    entries of [a] and [b]; [total], [clears] and [replacements] are
    summed. Policy and clear interval are taken from [a]. The merged
    capacity is [max (max (capacity a) (capacity b)) (union size)] — the
    union is {e never} truncated, because any capacity-bounded merge is
    non-associative (which equal-count value survives would depend on
    grouping). Consequently [merge] is associative and commutative up to
    [capacity]/[policy] bookkeeping: the entries of
    [merge (merge a b) c] and [merge a (merge b c)] are identical.

    Error model vs. profiling the concatenated stream: counts of values
    that held a slot in every shard are exact; a value that was dropped in
    some shard (table full under {!Lfu_clear}) under-counts by exactly the
    occurrences dropped there, the same way a single table drops them. So
    [covered] is conservative, [total] is exact, and [inv_top]/[inv_all]
    of the merge never exceed the concatenated-stream figures by more than
    the per-shard drop rate. *)
val merge : t -> t -> t

(** Forget everything (capacity and policy retained). *)
val reset : t -> unit
