(** Shared plumbing for the experiment drivers: the workload list in table
    order, and the {e units} every experiment reads its data from.

    {b Needs.} An experiment declares what it reads as needs — a
    registry profiler with a per-workload config, a TNV sweep, or an
    attachable (observers on a machine plus a collector) — and renders its
    tables from {!get}. Each need carries a {!Type.Id.t} witness, so a
    unit holds the values of many needs side by side and hands each back
    at its own type.

    {b The plan.} Before the supervised bodies start,
    {!Experiments.run}/{!Experiments.run_strings} install a plan
    ({!with_plan}) from the {!demand}s of the experiments they will
    actually run: one unit per [(workload, input)] (stage A) attaching
    the union of their needs, plus, for needs that read the finished full
    value profile ({!profiled}), one stage-B unit per workload and input.
    Needs on the same registry profiler with structurally equal configs
    share one attachment, and every TNV sweep of a unit shares one member
    with one exact {!Oracle} per load. A unit is one program build and one
    machine execution, whatever the number of members.

    {b Laziness.} Installing a plan computes nothing. A unit executes when
    the first experiment body reads one of its needs, so all the work
    happens inside the experiments (and inside any timing wrapped around
    them); whichever experiment reads a unit first pays for it. Under
    parallel supervision a body that would wait for a unit another domain
    is executing executes a planned unit of the same stage that nobody
    has started instead.

    {b Retention.} At collect time each need's [finish] maps the
    profiler's result to what its readers read, and the unit keeps only
    those values; observers are detached once collected.

    {b Outside a plan.} A need that no installed plan covers (a test
    calling an experiment body directly) is its own memoized unit, through
    the same code. The one exception keeps the harness's historic
    contract: the plain run, the full value profile and the procedure
    profile of a workload/input no plan covers share one execution.

    The unit table is a domain-safe {!Memo_cache}: experiments scheduled
    in parallel still execute each unit once, a unit that raises is not
    cached (each experiment that reads it fails, or retries it, on its
    own), and {!clear_cache} drops every unit. *)

(** All workloads, table order. *)
val workloads : Workload.t list

(** {2 Needs} *)

(** Something an experiment reads from a unit; ['a] is what the unit
    keeps. Needs are compared by identity: create each once, at module
    initialisation, and read it with the same value. *)
type 'a need

(** [need entry finish] — the registry profiler [entry], configured by
    [config] (default: the entry's own per-workload config); the unit
    keeps [finish] of its result. *)
val need :
  ?config:(Workload.t -> 'c) -> ('c, 'r) Registry.entry -> ('r -> 'a) -> 'a need

(** The convergent sampler with these sampling parameters (default TNV
    config, every value-producing instruction), keeping its whole result. *)
val sampled : Sampler.config -> Sampler.t need

(** [attachable f] — [f machine] subscribes observers on the unit's
    machine and returns the collector the unit calls after the run. *)
val attachable : (Machine.t -> unit -> 'a) -> 'a need

(** Like {!attachable}, for observers that need the finished full value
    profile ({!full_profile}) of the same workload and input before the
    run starts — profile-guided predictors. Served by the stage-B unit. *)
val profiled : (Profile.t -> Machine.t -> unit -> 'a) -> 'a need

(** [tnv_sweep tables] runs the program with every load instrumented,
    feeding each event to an exact {!Oracle} and to one fresh TNV table
    per entry of [tables] (capacity, policy and clear interval taken from
    each config). For each entry, in order, it keeps the
    execution-weighted mean absolute Inv-Top error of the table against
    the oracle, and the weighted rate at which the table's top value is
    the oracle's — [(0., 1.)] when the workload executes no load. The
    TNV-size, replacement-policy and clear-interval experiments are
    sweeps; on one unit they share the oracles and any equal table. *)
val tnv_sweep : Vstate.config list -> (float * float) list need

(** The machine after a full run: identical architectural state
    (registers, memory, counters) to an uninstrumented run. *)
val plain : Machine.t need

(** The full value profile (selection [`All]) from a unit. Read it
    through {!full_profile}, which also honours shards and the store. *)
val full : Profile.t need

(** The procedure profile, with the workload's declared arities. *)
val procs : Procprof.t need

(** The value of a need for a workload/input, executing its unit on the
    first read. *)
val get : 'a need -> Workload.t -> Workload.input -> 'a

(** {2 Plans} *)

(** A need on one input of every workload, or of the [only] ones named. *)
type demand

val demand : ?only:string list -> Workload.input -> 'a need -> demand

(** [with_plan demands f] runs [f] with the units planned from
    [demands] installed, then restores the previous plan. Installing
    computes nothing. With {!shards} above 1 the full value profile is
    left off the units: the sharded path serves it. *)
val with_plan : demand list -> (unit -> 'a) -> 'a

(** {2 Accessors} *)

(** Memoized full value profile (selection [`All]) of a workload/input.
    With {!set_shards} above 1, collected shardedly via {!Shard.profile}
    (memoized per shard count); otherwise {!full} from a unit. *)
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

(** [get plain]. *)
val plain_run : Workload.t -> Workload.input -> Machine.t

(** [get procs]. *)
val proc_profile : Workload.t -> Workload.input -> Procprof.t

(** Units executed since the last [clear_cache] — one machine execution
    each. *)
val machine_runs : unit -> int

(** Drop every unit and memoized profile (perfbench does this before
    each pass; tests use it to keep fixtures independent). *)
val clear_cache : unit -> unit

(** Load-category points of a profile. *)
val load_points : Profile.t -> Profile.point list

(** [value_points p] — points of every value-producing instruction. *)
val value_points : Profile.t -> Profile.point list
