(** The experiment registry: every table and figure of the thesis's
    evaluation, reproduced. See DESIGN.md for the experiment ↔ paper
    artifact mapping and EXPERIMENTS.md for recorded results. *)

type spec = {
  id : string;  (** "e01" … "e24" *)
  title : string;
  paper_ref : string;  (** the thesis table/figure it regenerates *)
  needs : Harness.demand list;
      (** what [run] reads from the harness units; {!run} and
          {!run_strings} plan the units from the needs of the specs they
          execute, so a wrapper that replaces [run] keeps the plan *)
  run : unit -> Table.t list;
      (** renders the tables, executing any unit it is the first to read *)
}

val all : spec list

(** Raises [Not_found] for unknown ids. *)
val find : string -> spec

(** An experiment's printable form: the [== id: title [ref] ==] banner
    followed by each rendered table and a blank line. Every printing path
    (the CLI, checkpointed and stored payloads) uses it, so their bytes
    splice together identically. *)
val render : spec -> Table.t list -> string

(** An experiment that failed even after the supervisor's retries. *)
type failure = {
  f_spec : spec;
  f_attempts : int;
  f_error : Supervisor.job_error;
}

(** What a supervised run returns: everything that completed (registry
    order) {e plus} a failure report — one bad experiment no longer
    aborts the suite. *)
type report = {
  results : (spec * Table.t list) list;
  failures : failure list;
}

val string_of_failure : failure -> string

(** Everything a supervised suite run is parameterized by, in one record:
    the CLI, the tests and CI all build the same value instead of
    threading separate [?policy]/[?jobs]/[?checkpoint] options. *)
type run_config = {
  rc_jobs : int option;  (** worker pool size; [None] = recommended count *)
  rc_fuel : int option;  (** per-attempt fuel budget; [None] = unlimited *)
  rc_retries : int;  (** extra attempts per experiment after the first *)
  rc_max_fuel : int option;
      (** cap on retry fuel-doubling (see {!Supervisor.policy}) *)
  rc_jitter : float;  (** retry-backoff jitter fraction; [0.] = exact *)
  rc_fail_fast : bool;  (** abort the suite on the first hard failure *)
  rc_checkpoint : Checkpoint.t option;  (** crash-safe resume store *)
  rc_trace : string option;  (** write a Chrome trace of the run here *)
  rc_metrics : string option;  (** write a registry snapshot here *)
  rc_shards : int;
      (** shard count for the harness's full value profiles (see
          {!Harness.set_shards}); 1 = serial collection *)
  rc_store : Store.t option;
      (** profile store for cross-invocation reuse: {!run_strings}
          serves whole cached experiments without scheduling them, and
          the harness serves cached value profiles without executing
          machines (see {!Harness.set_store}) *)
}

(** Serial, one retry, no fuel limit, no checkpoint, no sinks. *)
val default_run_config : run_config

(** Run a subset of the suite under supervision (see {!Supervisor}): each
    experiment runs in an ["experiment:<id>"] trace span, is retried per
    the config and recorded as a {!failure} instead of raising. If the
    config names trace/metrics sinks they are written on the way out
    (tracing is enabled for exactly this run). *)
val run : ?config:run_config -> spec list -> report

(** Supervised run yielding each experiment's {!render}ed bytes, with
    crash-safe checkpoint/resume when [rc_checkpoint] is set (see
    {!Checkpoint}): committed experiments are served from the store
    without rerunning; fresh ones are committed as they finish.

    With [rc_store] set, each experiment is additionally fingerprinted
    ({!Store.Fingerprint}) and looked up before scheduling: a hit is
    served with [o_attempts = 0] and zero machine executions, a miss
    runs and commits its rendered bytes to the store — so a repeated
    grid is near-instant and byte-identical. *)
val run_strings : ?config:run_config -> spec list -> string Supervisor.report
