(* Experiment-harness tests: every experiment produces well-formed tables,
   and the key qualitative claims of the paper hold on our workloads. *)

let test_registry_complete () =
  Alcotest.(check int) "twenty-four experiments" 24 (List.length Experiments.all);
  List.iteri
    (fun i (s : Experiments.spec) ->
      Alcotest.(check string)
        (Printf.sprintf "id %d" i)
        (Printf.sprintf "e%02d" (i + 1))
        s.Experiments.id)
    Experiments.all;
  Alcotest.(check bool) "find works" true
    ((Experiments.find "e03").Experiments.id = "e03");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Experiments.find "e99"))

let test_bb_quantile_coverage_monotone () =
  let qs = [ 1.; 5.; 20.; 100. ] in
  let counts = [| 100; 50; 10; 5; 1; 1; 1; 1; 0; 0 |] in
  let values = List.map (E02_bb_quantile.coverage counts) qs in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in quantile" true (monotone values);
  Alcotest.(check (float 1e-9)) "full coverage" 1.0
    (E02_bb_quantile.coverage counts 100.)

let test_hot_blocks_dominate () =
  (* the paper's premise: a small fraction of blocks covers most of
     execution — check it holds for every workload *)
  List.iter
    (fun (w : Workload.t) ->
      let prog = w.Workload.wbuild Workload.Test in
      let m = Harness.plain_run w Workload.Test in
      let blocks = Cfg.build prog in
      let counts = Cfg.dynamic_counts m blocks in
      let c50 = E02_bb_quantile.coverage counts 50. in
      Alcotest.(check bool)
        (w.Workload.wname ^ ": top half covers most execution")
        true (c50 > 0.6);
      Alcotest.(check bool)
        (w.Workload.wname ^ ": coverage monotone")
        true
        (E02_bb_quantile.coverage counts 10. <= c50 +. 1e-9
         && c50 <= E02_bb_quantile.coverage counts 100. +. 1e-9))
    Harness.workloads

let test_cross_input_correlation_positive () =
  (* Wall's observation, the paper's Table V.5 takeaway *)
  let w = Workloads.find "cc" in
  let pt = Harness.full_profile w Workload.Test in
  let ptr = Harness.full_profile w Workload.Train in
  let pairs =
    Array.to_list pt.Profile.points
    |> List.filter_map (fun (p : Profile.point) ->
           if p.p_metrics.Metrics.total = 0 then None
           else
             match Profile.point_at ptr p.p_pc with
             | Some q when q.p_metrics.Metrics.total > 0 ->
               Some
                 ( p.p_metrics.Metrics.inv_top,
                   q.p_metrics.Metrics.inv_top )
             | Some _ | None -> None)
  in
  let xs = Array.of_list (List.map fst pairs) in
  let ys = Array.of_list (List.map snd pairs) in
  let corr = Stats.pearson xs ys in
  Alcotest.(check bool) "strong positive correlation" true (corr > 0.5)

let test_specialization_outcomes_sound () =
  let outcomes = E12_specialization.outcomes () in
  Alcotest.(check bool) "at least three workloads specialize" true
    (List.length outcomes >= 3);
  List.iter
    (fun (o : E12_specialization.outcome) ->
      Alcotest.(check bool) (o.o_workload ^ ": result preserved") true o.o_equal)
    outcomes;
  (* the flagship case must actually get faster *)
  (match
     List.find_opt
       (fun (o : E12_specialization.outcome) -> o.o_workload = "m88ksim")
       outcomes
   with
   | Some o ->
     Alcotest.(check bool) "m88ksim speeds up" true
       (o.o_icount_after < o.o_icount_before)
   | None -> Alcotest.fail "m88ksim should specialize")

let test_sampler_beats_full_on_overhead () =
  let w = Workloads.find "li" in
  let full = Harness.full_profile w Workload.Test in
  let sampled = Sampler.run (w.Workload.wbuild Workload.Test) in
  Alcotest.(check bool) "at least 4x fewer events" true
    (sampled.Sampler.profiled_events * 4 < full.Profile.profiled_events);
  Alcotest.(check bool) "error still small" true
    (Sampler.invariance_error sampled full < 0.1)

let test_filtered_prediction_more_accurate () =
  (* E11b's claim, checked on one workload *)
  let w = Workloads.find "perl" in
  let profile = Harness.full_profile w Workload.Test in
  let results =
    Predictor.simulate
      (w.Workload.wbuild Workload.Test)
      [ Predictor.lvp ~bits:6 ();
        Predictor.filtered ~profile ~threshold:0.5 (Predictor.lvp ~bits:6 ()) ]
  in
  (match results with
   | [ plain; filtered ] ->
     Alcotest.(check bool) "accuracy improves" true
       (filtered.Predictor.pr_accuracy >= plain.Predictor.pr_accuracy);
     Alcotest.(check bool) "coverage shrinks" true
       (filtered.Predictor.pr_coverage <= plain.Predictor.pr_coverage +. 1e-9)
   | _ -> Alcotest.fail "expected two results")

let test_weight_loads_invariant_in_alvinn () =
  (* E10's claim: alvinn's weight locations are >= 90% invariant *)
  let w = Workloads.find "alvinn" in
  let r = Memprof.run (w.Workload.wbuild Workload.Test) in
  Alcotest.(check bool) "most accesses hit invariant locations" true
    (Memprof.fraction_invariant r ~threshold:0.9 > 0.7)

let test_tables_well_formed () =
  (* cheap experiments end-to-end; expensive ones are covered above *)
  List.iter
    (fun id ->
      let tables = (Experiments.find id).Experiments.run () in
      Alcotest.(check bool) (id ^ " has tables") true (List.length tables > 0);
      List.iter
        (fun t ->
          let rendered = Table.render t in
          Alcotest.(check bool) (id ^ " renders") true
            (String.length rendered > 0);
          let csv = Table.to_csv t in
          Alcotest.(check bool) (id ^ " csv") true (String.length csv > 0))
        tables)
    [ "e01"; "e02"; "e03"; "e05" ]

let test_harness_cache () =
  Harness.clear_cache ();
  let w = Workloads.find "go" in
  let p1 = Harness.full_profile w Workload.Test in
  let p2 = Harness.full_profile w Workload.Test in
  Alcotest.(check bool) "memoized (physical equality)" true (p1 == p2);
  Harness.clear_cache ();
  let p3 = Harness.full_profile w Workload.Test in
  Alcotest.(check bool) "cache cleared" true (p1 != p3)

let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let test_store_serves_repeat_suite () =
  let store = Store.create_mem () in
  let config =
    { Experiments.default_run_config with Experiments.rc_store = Some store }
  in
  let specs = [ Experiments.find "e01" ] in
  Fun.protect
    ~finally:(fun () ->
      Harness.set_store None;
      Harness.clear_cache ())
    (fun () ->
      Harness.clear_cache ();
      let cold = Experiments.run_strings ~config specs in
      let cold_payload =
        match cold.Supervisor.outcomes with
        | [ { Supervisor.o_attempts; o_result = Ok payload; _ } ] ->
          Alcotest.(check int) "cold run executes" 1 o_attempts;
          payload
        | _ -> Alcotest.fail "expected one successful outcome"
      in
      (* drop every in-process cache: only the store can serve the rerun *)
      Harness.clear_cache ();
      let h0 = counter_value "store.hits" in
      let m0 = counter_value "machine.runs" in
      let warm = Experiments.run_strings ~config specs in
      (match warm.Supervisor.outcomes with
       | [ { Supervisor.o_attempts; o_result = Ok payload; _ } ] ->
         Alcotest.(check int) "warm run never scheduled" 0 o_attempts;
         Alcotest.(check string) "byte-identical payload" cold_payload payload
       | _ -> Alcotest.fail "expected one successful outcome");
      Alcotest.(check int) "served by one store hit" (h0 + 1)
        (counter_value "store.hits");
      Alcotest.(check int) "zero machine executions" m0
        (counter_value "machine.runs");
      Alcotest.(check int) "warm report counts it completed" 1
        warm.Supervisor.completed)

let test_harness_store_serves_profiles () =
  let store = Store.create_mem () in
  Fun.protect
    ~finally:(fun () ->
      Harness.set_store None;
      Harness.clear_cache ())
    (fun () ->
      Harness.set_store (Some store);
      Harness.clear_cache ();
      let w = Workloads.find "go" in
      let p1 = Harness.full_profile w Workload.Test in
      (* memo gone, store still warm: the profile comes back without a
         single machine execution *)
      Harness.clear_cache ();
      let m0 = counter_value "machine.runs" in
      let p2 = Harness.full_profile w Workload.Test in
      Alcotest.(check int) "no machine execution" m0
        (counter_value "machine.runs");
      Alcotest.(check string) "identical profile" (Profile_io.to_string p1)
        (Profile_io.to_string p2))

(* ---- planned units ---------------------------------------------------- *)

let spec_needs ids =
  List.concat_map (fun id -> (Experiments.find id).Experiments.needs) ids

(* The gate: one cold pass of the whole suite executes each program once
   per stage — 24 stage-A units (every workload/input), 12 stage-B units
   (the profile-guided predictors on each test input) and the 9 runs of
   the specialized and memoized programs e12/e23 check — at one domain
   and at two, with the same bytes. *)
let test_suite_runs_planned_units () =
  let pass jobs =
    Harness.clear_cache ();
    let m0 = counter_value "machine.runs" in
    let rep =
      Experiments.run_strings
        ~config:{ Experiments.default_run_config with rc_jobs = Some jobs }
        Experiments.all
    in
    let runs = counter_value "machine.runs" - m0 in
    Alcotest.(check int) "no failures" 0 rep.Supervisor.failed;
    Alcotest.(check bool)
      (Printf.sprintf "-j %d: %d machine runs <= 45" jobs runs)
      true (runs <= 45);
    String.concat "" (Supervisor.oks rep)
  in
  let serial = pass 1 in
  let parallel = pass 2 in
  Harness.clear_cache ();
  Alcotest.(check bool) "-j 2 output byte-identical to -j 1" true
    (String.equal serial parallel)

(* Installing a plan computes nothing; the TNV sweep shares its unit (and
   its oracles) with every other sweep and need, and still gives exactly
   what its own unit gives. *)
let test_sweep_fused_matches_solo () =
  let w = Workloads.find "compress" in
  let sweeps =
    [ E07_tnv_size.sweep; E08_replacement.sweep; E21_clear_interval.sweep ]
  in
  Harness.clear_cache ();
  let solo = List.map (fun n -> Harness.get n w Workload.Test) sweeps in
  Alcotest.(check int) "outside a plan: one unit per sweep" 3
    (Harness.machine_runs ());
  Harness.clear_cache ();
  let fused =
    Harness.with_plan
      (spec_needs [ "e03"; "e07"; "e08"; "e10"; "e11"; "e21" ])
      (fun () ->
        Alcotest.(check int) "installing a plan runs nothing" 0
          (Harness.machine_runs ());
        List.map (fun n -> Harness.get n w Workload.Test) sweeps)
  in
  Alcotest.(check int) "planned: one unit serves every sweep" 1
    (Harness.machine_runs ());
  Harness.clear_cache ();
  Alcotest.(check bool) "fused sweeps identical to solo" true (solo = fused)

(* Needs on the same profiler with structurally equal configs attach
   once: e09/e14/e18/e24 ask for seven samplers, four distinct; e20's
   capacity 4096 is the harness's procedure-profile config. *)
let test_equal_needs_attach_once () =
  let w = Workloads.find "li" in
  let runs name = counter_value ("profiler." ^ name ^ ".runs") in
  Harness.clear_cache ();
  let s0 = runs "sample" and p0 = runs "procs" in
  Harness.with_plan
    (spec_needs [ "e09"; "e13"; "e14"; "e18"; "e20"; "e24" ])
    (fun () ->
      let sampled = Harness.get E14_overhead.sampler w Workload.Test in
      Alcotest.(check bool) "e14 and e24 read one sampler result" true
        (sampled == Harness.get E24_phases.sampler w Workload.Test);
      Alcotest.(check (float 0.)) "e20's 4096 is the harness procs run"
        (Procprof.memo_hit_rate (Harness.proc_profile w Workload.Test))
        (Harness.get (List.nth E20_memo_sweep.rates 4) w Workload.Test));
  Alcotest.(check int) "one unit" 1 (Harness.machine_runs ());
  Alcotest.(check int) "four sampler runs" 4 (runs "sample" - s0);
  Alcotest.(check int) "five procedure-profile runs" 5 (runs "procs" - p0);
  Harness.clear_cache ()

(* A unit that fails fails every experiment that reads it, each under its
   own id, and nothing escapes the suite. *)
let test_failing_unit_fails_each_reader () =
  Harness.clear_cache ();
  let rep =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Fault.arm ~site:"machine.step" ~at:1 ~count:1_000_000_000 ();
        Experiments.run_strings
          ~config:
            { Experiments.default_run_config with
              rc_jobs = Some 1; rc_retries = 0 }
          [ Experiments.find "e03"; Experiments.find "e07" ])
  in
  Harness.clear_cache ();
  Alcotest.(check int) "both failed" 2 rep.Supervisor.failed;
  List.iter2
    (fun id (o : string Supervisor.outcome) ->
      Alcotest.(check string) "reported under its own id" id o.Supervisor.o_name;
      match o.Supervisor.o_result with
      | Error (Supervisor.Injected site) ->
        Alcotest.(check string) "the unit's fault" "machine.step" site
      | Error e -> Alcotest.fail (Supervisor.string_of_error e)
      | Ok _ -> Alcotest.fail (id ^ " should fail"))
    [ "e03"; "e07" ] rep.Supervisor.outcomes

let suite =
  [ Alcotest.test_case "registry" `Quick test_registry_complete;
    Alcotest.test_case "bb coverage monotone" `Quick
      test_bb_quantile_coverage_monotone;
    Alcotest.test_case "hot blocks dominate" `Slow test_hot_blocks_dominate;
    Alcotest.test_case "cross-input correlation" `Slow
      test_cross_input_correlation_positive;
    Alcotest.test_case "specialization outcomes sound" `Slow
      test_specialization_outcomes_sound;
    Alcotest.test_case "sampler overhead win" `Slow
      test_sampler_beats_full_on_overhead;
    Alcotest.test_case "filtered prediction" `Slow
      test_filtered_prediction_more_accurate;
    Alcotest.test_case "alvinn weights invariant" `Slow
      test_weight_loads_invariant_in_alvinn;
    Alcotest.test_case "tables well formed" `Slow test_tables_well_formed;
    Alcotest.test_case "harness cache" `Quick test_harness_cache;
    Alcotest.test_case "store serves repeat suite" `Quick
      test_store_serves_repeat_suite;
    Alcotest.test_case "harness store serves profiles" `Quick
      test_harness_store_serves_profiles;
    Alcotest.test_case "suite runs planned units" `Slow
      test_suite_runs_planned_units;
    Alcotest.test_case "sweep fused matches solo" `Quick
      test_sweep_fused_matches_solo;
    Alcotest.test_case "equal needs attach once" `Quick
      test_equal_needs_attach_once;
    Alcotest.test_case "failing unit fails each reader" `Quick
      test_failing_unit_fails_each_reader ]
