(** Shared plumbing for the experiment drivers: the workload list in table
    order and one memoized {e fused} execution per workload/input — the
    plain machine state, the full value profile, and the procedure profile
    all come from a single machine run (instrumentation is additive; hooks
    never perturb architectural state). The memo table is a domain-safe
    {!Memo_cache}, so experiments scheduled in parallel by the driver
    still execute each workload/input exactly once. *)

(** All workloads, table order. *)
val workloads : Workload.t list

(** Memoized full value profile (selection [`All]) of a workload/input.
    With {!set_shards} above 1, collected shardedly via {!Shard.profile}
    (memoized per shard count); otherwise from the fused single
    execution. *)
val full_profile : Workload.t -> Workload.input -> Profile.t

(** Memoized sharded value profile, keyed by [(workload, input, shards)]
    — independent of the {!set_shards} toggle. *)
val sharded_profile :
  ?jobs:int -> Workload.t -> Workload.input -> shards:int -> Profile.t

(** Shard count {!full_profile} uses (default 1 = serial). Clamped to
    [>= 1]. The toggle changes which memo table serves the profile, never
    the contents of either. *)
val set_shards : int -> unit

val shards : unit -> int

(** Attach (or with [None] detach) a profile store. With a store
    attached, a {!full_profile}/{!sharded_profile} memo miss consults the
    store — keyed by the {!Store.Fingerprint} of (workload, input, fuel,
    profiler, shards, config) — before executing the machine, and every
    computed profile is committed for the next invocation. *)
val set_store : Store.t option -> unit

val store : unit -> Store.t option

(** Memoized machine state after a full run: identical architectural
    state (registers, memory, counters) to an uninstrumented run. The
    profilers' observers are detached once their results are collected. *)
val plain_run : Workload.t -> Workload.input -> Machine.t

(** Memoized procedure profile (with the workload's declared arities). *)
val proc_profile : Workload.t -> Workload.input -> Procprof.t

(** Machine executions performed since the last [clear_cache] — at most
    one per workload/input, however many accessors were consulted. *)
val machine_runs : unit -> int

(** Drop every memoized result (tests use this to keep fixtures
    independent). *)
val clear_cache : unit -> unit

(** Load-category points of a profile. *)
val load_points : Profile.t -> Profile.point list

(** [value_points p] — points of every value-producing instruction. *)
val value_points : Profile.t -> Profile.point list

(** [tnv_sweep w tables] runs [w]'s test input once with every load
    instrumented, feeding each event to an exact {!Oracle} and to one
    fresh table per entry of [tables] (built by calling it once per
    point). For each entry, in order, returns the execution-weighted mean
    absolute Inv-Top error of the table against the oracle, and the
    weighted rate at which the table's top value is the oracle's —
    [(0., 1.)] when the workload executes no load. The TNV-size,
    replacement-policy and clear-interval experiments are sweeps over
    [tables]. *)
val tnv_sweep : Workload.t -> (unit -> Tnv.t) list -> (float * float) list
