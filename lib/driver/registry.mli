(** The profiler registry: every profiler the CLI can run, in one list.

    An entry pairs a profiler's {!Profiler_intf.S} adapter with how to
    configure it for a workload. The procedure and call-context profilers
    take the workload's declared arities; every other profiler takes its
    adapter's default. [vprof]'s profiler subcommands and
    [vprof fused --profilers] are built from these entries, so adding a
    profiler is one registration here. The profiler's [P.name] is the
    only spelling of its name. *)

type ('c, 'r) entry = {
  profiler :
    (module Profiler_intf.S with type config = 'c and type result = 'r);
  config : Workload.t -> 'c;
  id : ('c * 'r) Type.Id.t;
      (** The entry's type witness. Two entries whose ids are provably
          equal ({!Type.Id.provably_equal}) share their config and result
          types, so code holding entries, configs or results of several
          profilers side by side can find one back without a cast. *)
}

val profile : (Profile.profiler_config, Profile.t) entry
val sample : (Sampler.profiler_config, Sampler.t) entry
val memory : (Memprof.config, Memprof.t) entry
val procs : (Procprof.config, Procprof.t) entry
val registers : (Regprof.config, Regprof.t) entry
val contexts : (Ctxprof.config, Ctxprof.t) entry
val phases : (Phaseprof.profiler_config, Phaseprof.t) entry
val trivial : (unit, Trivprof.t) entry
val speculate : (Specul.profiler_config, Specul.t) entry

(** An entry with its config and result types hidden. *)
type t = Entry : ('c, 'r) entry -> t

(** Every registered profiler, in CLI order. *)
val all : t list

(** The profiler names of {!all}, in order. *)
val names : string list

(** The registered profiler with this name, if any. *)
val find : string -> t option

val name : ('c, 'r) entry -> string

(** A driver job running the entry's profiler on [workload]/[input].
    [config] defaults to the entry's config for [workload]. *)
val job :
  ?config:'c ->
  ?fuel:int ->
  finish:('r -> 'a) ->
  ('c, 'r) entry ->
  Workload.t ->
  Workload.input ->
  'a Driver.job
