type spec = {
  id : string;
  title : string;
  paper_ref : string;
  needs : Harness.demand list;
  run : unit -> Table.t list;
}

let all =
  [ { id = "e01"; title = "Benchmarks and data sets";
      paper_ref = "Table III.1";
      needs = E01_workloads.needs; run = E01_workloads.run };
    { id = "e02"; title = "Basic Block Quantile Table";
      paper_ref = "Table IV.1";
      needs = E02_bb_quantile.needs; run = E02_bb_quantile.run };
    { id = "e03"; title = "Load value invariance";
      paper_ref = "Ch. V load tables";
      needs = E03_load_invariance.needs; run = E03_load_invariance.run };
    { id = "e04"; title = "Instruction invariance by category";
      paper_ref = "Ch. V instruction tables";
      needs = E04_all_invariance.needs; run = E04_all_invariance.run };
    { id = "e05"; title = "Invariance distribution";
      paper_ref = "Ch. V distribution figures (§III.D bucketing)";
      needs = E05_distribution.needs; run = E05_distribution.run };
    { id = "e06"; title = "Test vs train data sets";
      paper_ref = "Table V.5";
      needs = E06_cross_input.needs; run = E06_cross_input.run };
    { id = "e07"; title = "TNV table size sweep";
      paper_ref = "TNV design evaluation";
      needs = E07_tnv_size.needs; run = E07_tnv_size.run };
    { id = "e08"; title = "TNV replacement ablation";
      paper_ref = "TNV design evaluation";
      needs = E08_replacement.needs; run = E08_replacement.run };
    { id = "e09"; title = "Convergent sampling";
      paper_ref = "Ch. VI";
      needs = E09_sampling.needs; run = E09_sampling.run };
    { id = "e10"; title = "Memory-location profiling";
      paper_ref = "Ch. VII";
      needs = E10_memory.needs; run = E10_memory.run };
    { id = "e11"; title = "Value prediction classification";
      paper_ref = "Ch. II/IX (Gabbay [18])";
      needs = E11_prediction.needs; run = E11_prediction.run };
    { id = "e12"; title = "Code specialization";
      paper_ref = "Ch. X";
      needs = E12_specialization.needs; run = E12_specialization.run };
    { id = "e13"; title = "Procedure profiling and memoization";
      paper_ref = "procedure chapters, Richardson [32]";
      needs = E13_procedures.needs; run = E13_procedures.run };
    { id = "e14"; title = "Profiling overhead";
      paper_ref = "Ch. VI overhead discussion";
      needs = E14_overhead.needs; run = E14_overhead.run };
    { id = "e15"; title = "Predictability classification and routing";
      paper_ref = "Gabbay [18] extension";
      needs = E15_classification.needs; run = E15_classification.run };
    { id = "e16"; title = "Register value profiling";
      paper_ref = "Gabbay [17] register-file discussion";
      needs = E16_registers.needs; run = E16_registers.run };
    { id = "e17"; title = "Context-sensitive parameter profiling";
      paper_ref = "future work via Young & Smith [40]";
      needs = E17_context.needs; run = E17_context.run };
    { id = "e18"; title = "Sampler convergence-criterion ablation";
      paper_ref = "Ch. VI future work";
      needs = E18_criteria.needs; run = E18_criteria.run };
    { id = "e19"; title = "Trivial computation";
      paper_ref = "Richardson [32]";
      needs = E19_trivial.needs; run = E19_trivial.run };
    { id = "e20"; title = "Memoization-cache size sweep";
      paper_ref = "Richardson [32] memoization";
      needs = E20_memo_sweep.needs; run = E20_memo_sweep.run };
    { id = "e21"; title = "TNV clear-interval sensitivity";
      paper_ref = "TNV design evaluation";
      needs = E21_clear_interval.needs; run = E21_clear_interval.run };
    { id = "e22"; title = "Profile-guided load speculation";
      paper_ref = "Moudgill & Moreno [29], §II.A.1";
      needs = E22_speculation.needs; run = E22_speculation.run };
    { id = "e23"; title = "Memoization transform";
      paper_ref = "Richardson [32] memoization";
      needs = E23_memoization.needs; run = E23_memoization.run };
    { id = "e24"; title = "Phase behaviour (windowed profiling)";
      paper_ref = "Ch. VI stationarity assumption";
      needs = E24_phases.needs; run = E24_phases.run } ]

let find id =
  match List.find_opt (fun s -> s.id = id) all with
  | Some s -> s
  | None -> raise Not_found

(* One rendering for both the printed and the checkpointed paths, so a
   resumed run's bytes are identical to a straight-through run's. *)
let render spec tables =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s  [%s] ==\n" spec.id spec.title spec.paper_ref);
  List.iter
    (fun t ->
      Buffer.add_string buf (Table.render t);
      Buffer.add_char buf '\n')
    tables;
  Buffer.contents buf

type failure = {
  f_spec : spec;
  f_attempts : int;
  f_error : Supervisor.job_error;
}

type report = {
  results : (spec * Table.t list) list;
  failures : failure list;
}

type run_config = {
  rc_jobs : int option;
  rc_retries : int;
  rc_fail_fast : bool;
  rc_checkpoint : Store.t option;
  rc_trace : string option;
  rc_metrics : string option;
  rc_shards : int;
  rc_store : Store.t option;
}

let default_run_config =
  { rc_jobs = None;
    rc_retries = Supervisor.default_policy.Supervisor.retries;
    rc_fail_fast = false;
    rc_checkpoint = None;
    rc_trace = None;
    rc_metrics = None;
    rc_shards = 1;
    rc_store = None }

let policy_of_config c =
  { Supervisor.retries = c.rc_retries;
    on_error = (if c.rc_fail_fast then `Abort else `Skip) }

(* The units of a run are planned from the experiments that will actually
   execute; installing the plan computes nothing (see {!Harness}). *)
let planned specs f =
  Harness.with_plan (List.concat_map (fun s -> s.needs) specs) f

let run_spec_traced spec =
  Obs.Trace.with_span ~cat:"experiments" ("experiment:" ^ spec.id) spec.run

(* The store key of a rendered experiment: the unit of cross-invocation
   reuse is the whole rendered payload, fingerprinted by everything that
   could change its bytes (the spec plus the shard knob). *)
let spec_key (c : run_config) id =
  Store.Fingerprint.(
    key
      (make ~shards:c.rc_shards ~profiler:"experiment" ~workload:id
         ~input:"suite" ()))

let run ?(config = default_run_config) specs =
  Obs.with_sinks ~trace:config.rc_trace ~metrics:config.rc_metrics
  @@ fun () ->
  Harness.set_shards config.rc_shards;
  Harness.set_store config.rc_store;
  let rep =
    planned specs @@ fun () ->
    Supervisor.map ~policy:(policy_of_config config) ?jobs:config.rc_jobs
      ~name:(fun s -> s.id)
      (fun spec -> (spec, run_spec_traced spec))
      specs
  in
  let failures =
    List.map2
      (fun spec (o : _ Supervisor.outcome) ->
        match o.Supervisor.o_result with
        | Ok _ -> None
        | Error e ->
          Some { f_spec = spec; f_attempts = o.Supervisor.o_attempts; f_error = e })
      specs rep.Supervisor.outcomes
    |> List.filter_map Fun.id
  in
  { results = Supervisor.oks rep; failures }

let run_strings ?(config = default_run_config) specs =
  Obs.with_sinks ~trace:config.rc_trace ~metrics:config.rc_metrics
  @@ fun () ->
  Harness.set_shards config.rc_shards;
  Harness.set_store config.rc_store;
  (* the checkpoint is keyed by experiment id, the profile store by the
     fingerprint; experiments either serves add nothing to the plan *)
  let stores =
    List.filter_map Fun.id
      [ Option.map (fun ck -> (ck, Fun.id)) config.rc_checkpoint;
        Option.map (fun st -> (st, spec_key config)) config.rc_store ]
  in
  let by_id id = List.find (fun s -> s.id = id) specs in
  Supervisor.run_strings ~policy:(policy_of_config config)
    ?jobs:config.rc_jobs ~stores
    ~scope:(fun fresh -> planned (List.map by_id fresh))
    (List.map
       (fun spec -> (spec.id, fun () -> render spec (run_spec_traced spec)))
       specs)

let string_of_failure f =
  Printf.sprintf "experiment %s FAILED after %d attempt%s: %s" f.f_spec.id
    f.f_attempts
    (if f.f_attempts = 1 then "" else "s")
    (Supervisor.string_of_error f.f_error)
