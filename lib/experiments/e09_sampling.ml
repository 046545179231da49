(* E09 — convergent sampling (Chapter VI): profiling overhead (fraction
   of dynamic events actually recorded) against invariance error relative
   to the full profile, for several sampler aggressiveness settings. *)

let configs =
  [ ("eager (no backoff)",
     { Sampler.default_config with initial_skip = 50; backoff = 1. });
    ("default", Sampler.default_config);
    ("aggressive",
     { Sampler.default_config with
       initial_skip = 500; backoff = 8.; max_skip = 500_000 }) ]
  |> List.map (fun (name, config) -> (name, Harness.sampled config))

let needs =
  Harness.demand Workload.Test Harness.full
  :: List.map (fun (_, n) -> Harness.demand Workload.Test n) configs

let run () =
  let table =
    Table.create
      ~title:
        "E09 - Convergent sampling: overhead vs invariance error (all value instructions, test input)"
      [ "program"; "config"; "events"; "profiled"; "overhead"; "inv error";
        "converged pts" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let full = Harness.full_profile w Workload.Test in
      List.iter
        (fun (cname, sampler) ->
          let sampled = Harness.get sampler w Workload.Test in
          let converged =
            Array.fold_left
              (fun acc (p : Sampler.point) -> if p.s_converged then acc + 1 else acc)
              0 sampled.Sampler.points
          in
          Table.add_row table
            [ w.wname; cname;
              Table.count sampled.Sampler.total_events;
              Table.count sampled.Sampler.profiled_events;
              Table.pct sampled.Sampler.overhead;
              Table.pct (Sampler.invariance_error sampled full);
              Printf.sprintf "%d/%d" converged
                (Array.length sampled.Sampler.points) ])
        configs;
      Table.add_sep table)
    Harness.workloads;
  [ table ]
