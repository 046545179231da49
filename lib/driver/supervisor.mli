(** Fault-tolerant supervision for grids of profiling jobs.

    {!Pool.map} is all-or-nothing: one raising job aborts the whole grid
    and drops every other result. The paper's methodology is exactly such
    a grid — every profiler variant × every workload × every input — and
    at production scale a single trap, timeout, or I/O error must cost
    one cell, not hours of completed work. The supervisor wraps the pool
    so each job runs under a {!policy}:

    - a failing attempt is {e retried} up to [policy.retries] times;
    - a job that exhausts its retries is recorded as a typed
      {!job_error} in the report — the grid keeps going ([`Skip]), or the
      pool's shared cancellation flag stops the remaining queue
      ([`Abort]), in which case unstarted jobs report [Cancelled];
    - results come back {e per job, in submission order}, successes and
      failures side by side, so callers get partial results plus a
      failure report instead of an exception.

    Each attempt passes the ["supervisor.job"] fault-injection site, so a
    test (or [VPROF_FAULT]) can kill exactly the k-th attempt of a run
    and assert the grid survives. *)

(** Why a job ultimately failed. *)
type job_error =
  | Trap of Machine.trap  (** the workload trapped (division by zero, …) *)
  | Timeout of int  (** fuel budget exhausted; carries the budget *)
  | Io of string  (** [Sys_error] — filesystem trouble *)
  | Injected of string  (** {!Fault.Injected}; carries the site *)
  | Cancelled  (** never started: the grid was aborted first *)
  | Crash of string  (** any other exception, printed *)
  | Deadline of float
      (** {!Budget.Deadline_exceeded}: the governed wall-clock budget ran
          out. Never retried — the clock is global — and the rest of the
          grid is cancelled cooperatively through the pool's shared
          cancellation flag. *)
  | Mem_pressure of int
      (** {!Budget.Mem_pressure}: heap watermark breached with
          degradation off; carries the observed heap words. Retried like
          any other failure (a retry may run degraded and fit). *)

val string_of_error : job_error -> string

type policy = {
  retries : int;  (** extra attempts after the first (so [retries = 2] means up to 3 runs) *)
  on_error : [ `Skip | `Abort ];
      (** after retries are exhausted: record and continue, or trip the
          shared cancellation flag and stop the grid *)
}

(** [{ retries = 1; on_error = `Skip }]. *)
val default_policy : policy

(** One job's fate. *)
type 'a outcome = {
  o_name : string;
  o_attempts : int;
      (** attempts actually run; [0] for a cached or cancelled job *)
  o_result : ('a, job_error) result;
}

type 'a report = {
  outcomes : 'a outcome list;  (** submission order, one per job *)
  completed : int;
  failed : int;  (** excludes [Cancelled] *)
  cancelled : int;
}

(** The [Ok] payloads, submission order preserved. *)
val oks : 'a report -> 'a list

(** The non-[Ok] outcomes, submission order preserved. *)
val failures : 'a report -> 'a outcome list

(** Generic supervised parallel map: [f] runs under retry and error
    capture. [name] labels each item's outcome. *)
val map :
  ?policy:policy ->
  ?jobs:int ->
  name:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b report

(** The cached run of a grid of named string-payload jobs — the one path
    behind checkpoint/resume and the profile store.

    Each job is looked up once in [stores], in order, each store under
    its own key for the job's name ({!Store.get}, so every lookup counts
    [store.hits] or [store.misses]); the first hit is served with
    [o_attempts = 0] and never runs. The misses run supervised inside
    [scope] (called with their names, default: directly), and each fresh
    payload is committed to every store from its worker as it finishes —
    under the ["checkpoint.commit"] fault site, span and counter — before
    the grid moves on. Outcomes come back in submission order. *)
val run_strings :
  ?policy:policy ->
  ?jobs:int ->
  ?stores:(Store.t * (string -> string)) list ->
  ?scope:(string list -> (unit -> string report) -> string report) ->
  (string * (unit -> string)) list ->
  string report
