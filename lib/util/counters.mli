(** Cost counters every profiler reports alongside its result, so the
    overhead the paper argues about ("cheap enough to run everywhere") is
    observable rather than assumed: how many dynamic events the run
    produced, how many the profiler actually recorded, how much TNV
    maintenance happened, and how long the instrumented run took.

    What counts as "seen" vs "profiled" is the profiler's own notion:
    full profiling sees every dynamic instruction and profiles the hooked
    ones; the convergent sampler sees every hooked event and profiles the
    in-burst subset; the memory profiler sees every access and profiles
    the tracked locations. *)

type t = {
  mutable events_seen : int;
  mutable events_profiled : int;
  mutable tnv_clears : int;  (** periodic clears across all TNV tables *)
  mutable tnv_replacements : int;  (** LFU/LRU evictions across all tables *)
  mutable wall_seconds : float;  (** attach-to-collect wall clock *)
  mutable degrade_level : int;
      (** {!Budget} degradation level the run finished at: [0] means an
          exact profile; [> 0] means precision was shed under memory
          pressure and the result is approximate. *)
}

(** All-zero counters. *)
val create : unit -> t

(** Wall clock for stamping [wall_seconds] ([Unix.gettimeofday]). *)
val now : unit -> float

(** [accumulate ~into c] adds every field of [c] onto [into] (wall time
    included; [degrade_level] takes the max — an aggregate is as
    approximate as its most degraded part), for summing costs across
    fused profilers or runs. *)
val accumulate : into:t -> t -> unit

(** Relative cost of the run these counters describe, for ranking fused
    members when degradation must shed one: profiled events weigh double,
    TNV clears weigh 100 (each is a full table scan). *)
val run_cost : t -> int

(** [events_seen] per wall second; 0 when no time elapsed. *)
val events_per_sec : t -> float

val pp : Format.formatter -> t -> unit

val to_string : t -> string
