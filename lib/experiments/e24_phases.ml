(* E24 — temporal stability of value behaviour: the convergent sampler
   assumes an instruction's invariance is stationary; this measures the
   per-window drift that breaks the assumption and correlates it with
   E09's sampler error. *)

(* the drift columns, computed when the unit collects: the per-window
   series are not kept *)
let drift =
  Harness.need Registry.phases (fun ph ->
      let executed =
        Array.to_list ph.Phaseprof.points
        |> List.filter (fun (p : Phaseprof.point) -> p.ph_total > 0)
      in
      let drifts =
        Array.of_list (List.map (fun (p : Phaseprof.point) -> p.ph_drift) executed)
      in
      let stable =
        List.length
          (List.filter (fun (p : Phaseprof.point) -> p.ph_drift < 0.05) executed)
      in
      [ string_of_int (List.length executed);
        Table.pct (Phaseprof.mean_drift ph);
        Table.pct (if Array.length drifts = 0 then 0. else snd (Stats.min_max drifts));
        Printf.sprintf "%d/%d" stable (List.length executed) ])

let sampler = Harness.sampled Sampler.default_config

let needs =
  [ Harness.demand Workload.Test drift;
    Harness.demand Workload.Test Harness.full;
    Harness.demand Workload.Test sampler ]

let run () =
  let table =
    Table.create
      ~title:
        "E24 - Phase behaviour: per-window Inv-Top drift (2000-execution windows, loads, test input)"
      [ "program"; "points"; "mean drift"; "max drift"; "stable pts (<5pp)";
        "sampler err (E09 default)" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let full = Harness.full_profile w Workload.Test in
      let sampled = Harness.get sampler w Workload.Test in
      Table.add_row table
        ((w.wname :: Harness.get drift w Workload.Test)
         @ [ Table.pct (Sampler.invariance_error sampled full) ]))
    Harness.workloads;
  [ table ]
