(** The parallel profiling driver.

    Schedules (workload, input, profiler) jobs across a fixed pool of
    domains (see {!Pool}); any profiler that exposes a
    {!Profiler_intf.S} adapter can be driven. Each job builds its own
    program and machine — every [Machine.t] owns all of its mutable
    state, so jobs share nothing and parallelize cleanly — and results
    always come back in submission order, making parallel runs
    byte-identical to serial ones for any order-dependent consumer.

    A job carries a [finish] continuation mapping the profiler's typed
    result to the caller's element type, so one [run_jobs] call can mix
    profilers ([Profile] and [Sampler] jobs folding into a common sum,
    say) while staying fully typed. *)

(** A scheduled profiling run. ['a] is what the job yields to the caller
    after [finish]; the profiler's own result and config types are
    existential. *)
type 'a job

(** [job profiler workload input ~finish] — run [profiler] on
    [workload]'s program for [input] and pass its result through
    [finish]. [config] defaults to the profiler's [default_config];
    [fuel] is the machine's instruction budget. *)
val job :
  ?config:'c ->
  ?fuel:int ->
  finish:('r -> 'a) ->
  (module Profiler_intf.S with type result = 'r and type config = 'c) ->
  Workload.t ->
  Workload.input ->
  'a job

(** ["<profiler>:<workload>:<input>"], for logs and failure reports. *)
val job_name : 'a job -> string

(** Run every job — across [jobs] domains when [jobs > 1], on the calling
    domain otherwise — and return the finished results in submission
    order. [jobs] defaults to {!Pool.default_jobs}; [0] means the same.

    Jobs that share a [(workload, input, fuel)] key profile the {e same}
    machine execution (instrumentation is additive, see {!Fused}), so
    they are grouped into units: one unit = one program build + one
    machine run, serving every member job. Units are scheduled in the
    submission order of their first member; a unit with one member takes
    the profiler's plain [run] entry point. *)
val run_jobs : ?jobs:int -> 'a job list -> 'a list

(** The unit names [run_jobs] would execute, in schedule order — how the
    CLI shows what fusion did: the [job_name] of a one-member unit,
    ["fused[p1+p2+…]:<workload>:<input>"] otherwise. *)
val plan : 'a job list -> string list

(** {!Pool.default_jobs}, re-exported so driver consumers need not depend
    on the pool directly. *)
val default_jobs : unit -> int
