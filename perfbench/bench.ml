(* The vprof benchmark. Three workloads, each a closed loop with one
   client on one domain, every op checked against a golden digest:

   - profile_grid: full value profiles of the 12 train programs;
   - experiment_suite: cold passes of e01..e24, serial;
   - store_cycle: a seeded 3:1 mix of store gets and puts, each as one
     `--store` CLI invocation performs it.

   Usage (from the root of a checkout):
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --regen-golden [--force]

   The last line of stdout is one JSON object {correct, attempted,
   failed, metrics}: the end-to-end metrics with --trace 0, the per-layer
   metrics of the traced run (see survey.ml) with --trace 1. *)

open Common

let golden_dir = Filename.concat "perfbench" "golden"

let workloads = [ "profile_grid"; "experiment_suite"; "store_cycle" ]

(* Times one run of [f] into [samples]. [f] wraps each piece of its
   work in [p.run]; the set-up's time is the sum of the pieces'
   calibrated times, so a long set-up is calibrated as finely as an op. *)
let timed_setup samples f =
  let total = ref 0. in
  let run g =
    let r, dt, _ = calibrated g in
    total := !total +. dt;
    r
  in
  let r = f { Passes.run } in
  samples := !total :: !samples;
  r

(* Set-up runs three times before the first pass; the last result is
   the one measured. *)
let setup samples f =
  ignore (timed_setup samples f);
  ignore (timed_setup samples f);
  timed_setup samples f

let build (p : Passes.piece) = p.run build_programs

(* Passes run back to back until [seconds] have elapsed, at least one;
   the pass in progress at the deadline completes. A cheap set-up is
   repeated after every pass ([resetup]), so its samples span the same
   stretch of host time as the passes. *)
let until ~seconds ?resetup t f =
  let t_end = now () +. seconds in
  let rec go pass =
    (* every `vprof` invocation starts with an empty registry *)
    Obs.Metrics.reset ();
    Passes.record_pass t (fun () -> f pass);
    Option.iter (fun g -> g ()) resetup;
    if now () < t_end then go (pass + 1)
  in
  go 0

(* Op latency percentiles are taken over every op of the run; pass time
   and allocation per op are medians over the passes. *)
let end_to_end setup (t : Passes.tally) =
  let passes = t.passes in
  let per_pass f = median (List.map f passes) in
  let ops_ms =
    List.concat_map (fun (p : Passes.pass) -> List.map (fun s -> s *. 1000.) p.op_s) passes
  in
  ( [ ("setup_s", median setup, "s");
      ("op_ms_p50", percentile 50. ops_ms, "ms");
      ("op_ms_p90", percentile 90. ops_ms, "ms");
      ("pass_s", per_pass (fun p -> p.pass_s), "s");
      ( "minor_words_per_op",
        per_pass (fun p -> p.words /. float (List.length p.op_s)),
        "words" );
      ("peak_rss_mb", peak_rss_mb (), "MB") ],
    Printf.sprintf "%d set-ups, %d passes, %d ops, median host slowdown %.3f"
      (List.length setup) (List.length passes) (List.length ops_ms)
      (median t.slowdowns) )

(* A fresh store directory per run, removed at exit. *)
let store_dir workload =
  let dir =
    Filename.concat out_dir (Printf.sprintf "store-%s-%d" workload (Unix.getpid ()))
  in
  at_exit (fun () -> rm_rf dir);
  dir

let run_workload ~workload ~seed ~seconds ~golden t =
  let samples = ref [] in
  let resetup () = ignore (timed_setup samples build) in
  (match workload with
   | "profile_grid" ->
     let train = Array.of_list (train (setup samples build)) in
     until ~seconds ~resetup t (fun pass ->
         Passes.profile_pass t ~golden ~seed ~pass train)
   | "experiment_suite" ->
     ignore (setup samples build);
     until ~seconds ~resetup t (fun _ -> ignore (Passes.experiment_pass t ~golden))
   | "store_cycle" ->
     let dir = store_dir workload in
     let entries =
       setup samples (fun piece ->
           let entries = Passes.store_entries ~piece (build piece) in
           piece.run (fun () -> Passes.fill_store dir entries);
           entries)
     in
     let next_op = Passes.op_stream ~seed (Array.length entries) in
     until ~seconds t (fun pass ->
         Passes.store_pass t ~golden ~next_op ~pass dir entries);
     Passes.verify_store t dir
   | w -> invalid_arg ("unknown workload " ^ w));
  end_to_end !samples t

let traced_run ~workload ~seed ~golden t =
  let dir = store_dir workload in
  let metrics = Survey.run ~seed ~golden ~store_dir:dir t in
  let trace = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
  let registry = Filename.concat out_dir ("metrics-" ^ workload ^ ".json") in
  Spans.write_chrome trace;
  Obs.Metrics.write_file registry;
  (metrics, Printf.sprintf "trace %s, registry %s" trace registry)

(* Rendered by hand rather than through Obs.Json so every value keeps
   all 17 significant digits. *)
let json_result (t : Passes.tally) metrics =
  let metric (name, v, unit) =
    if not (Float.is_finite v) then failwith (name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", " (List.map metric metrics))

(* ---- Golden outputs ---------------------------------------------------- *)

(* Digests of every profile the workloads compare against (24 programs x
   8 TNV capacities, v3 bytes) and of every experiment's rendered output. *)
let regen_golden ~force =
  let file = golden_file golden_dir in
  if Sys.file_exists file && not force then begin
    prerr_endline (file ^ " exists; pass --force to overwrite it");
    exit 2
  end;
  let profiles =
    Array.to_list (Passes.store_entries (build_programs ()))
    |> List.map (fun (e : Passes.entry) -> (e.e_label, profile_digest e.e_profile))
  in
  Harness.clear_cache ();
  let rep = Experiments.run_strings ~config:Passes.suite_config Experiments.all in
  let experiments =
    List.map
      (fun (o : string Supervisor.outcome) ->
        match o.o_result with
        | Ok payload -> (experiment_label o.o_name, digest payload)
        | Error _ -> failwith ("experiment " ^ o.o_name ^ " failed"))
      rep.Supervisor.outcomes
  in
  mkdir golden_dir;
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun (label, d) -> Printf.fprintf oc "%s %s\n" label d)
        (List.sort compare (profiles @ experiments)));
  Printf.printf "wrote %s\n" file

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let regen = ref false and force = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--regen-golden", Arg.Set regen, " record the golden digests");
      ("--force", Arg.Set force, " let --regen-golden overwrite them") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !regen then regen_golden ~force:!force
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("bench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let golden = load_golden golden_dir in
    mkdir out_dir;
    let t = Passes.new_tally () in
    let metrics, summary =
      if !trace = 1 then traced_run ~workload:!workload ~seed:!seed ~golden t
      else run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~golden t
    in
    Printf.printf "%s: %s, %d ops checked, %d failed\n" !workload summary t.attempted
      t.failed;
    print_endline (json_result t metrics)
  end
