(** A domain-safe once-per-key memo cache.

    Replaces the plain [Hashtbl] memo tables the experiment harness used
    when everything ran on one domain. The guarantee concurrent callers
    need is {e once-per-key}: when several domains request the same absent
    key simultaneously, exactly one runs the computation and the others
    block until its result lands, rather than duplicating seconds of
    profiling work (or tearing the table).

    Implementation: one mutex around the table plus a per-cache condition
    variable acting as the latch — an in-flight key is marked [Running];
    waiters sleep on the condition and re-check when woken. A computation
    that raises is {e not} cached (matching the old serial semantics):
    the key is released, the exception propagates to the computing caller,
    and any waiter retries the computation itself. *)

type ('k, 'v) t

(** [?max_entries] bounds the number of {e completed} entries: when an
    insertion pushes the population past the bound, the least-recently-used
    completed entries are evicted (each counting [memo.evictions] in
    {!Obs}). In-flight computations are never evicted, so the once-per-key
    guarantee is unaffected; an evicted key simply recomputes on next
    request. [Invalid_argument] if [max_entries < 1]. *)
val create : ?size:int -> ?max_entries:int -> unit -> ('k, 'v) t

(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] — once, even under concurrent callers — caches and returns it.
    [f] runs outside the cache lock, so computations for distinct keys
    proceed in parallel. [f] must not re-enter the cache on the same key
    (it would deadlock waiting on itself). *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** [try_compute t k f] runs [find_or_compute t k f] only when [k] is
    neither cached nor being computed, and says whether it did; it never
    waits. *)
val try_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> bool

(** A computation for [k] is in flight on some domain. *)
val running : ('k, 'v) t -> 'k -> bool

(** Number of computations actually run (not counting cache hits) since
    [create]/[clear] — the once-per-key tests assert on this. *)
val computations : ('k, 'v) t -> int

(** Drop every cached value and zero {!computations}. Intended for
    quiescent moments (test fixture isolation); a computation in flight
    during [clear] still completes and re-registers its result. *)
val clear : ('k, 'v) t -> unit
