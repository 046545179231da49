(* E22 — profile-guided speculative load scheduling (Moudgill & Moreno
   [29], §II.A.1): hoisting all loads pays the mis-speculation (value-
   check failure) rate of the whole program; hoisting only the loads the
   value profile calls invariant pays almost nothing. *)

let threshold = 0.9

let speculate = Harness.need Registry.speculate Fun.id

let needs =
  [ Harness.demand Workload.Test speculate;
    Harness.demand Workload.Test Harness.full ]

let run () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E22 - Speculative-load value-check conflicts: all loads vs profile-selected (Inv-Top >= %.0f%%, test input)"
           (100. *. threshold))
      [ "program"; "load execs"; "conflict rate (all)";
        "selected loads"; "conflict rate (selected)"; "rate (rejected)" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let spec = Harness.get speculate w Workload.Test in
      let profile = Harness.full_profile w Workload.Test in
      let invariant_pc pc =
        match Profile.point_at profile pc with
        | Some p -> p.Profile.p_metrics.Metrics.inv_top >= threshold
        | None -> false
      in
      let selected =
        Array.to_list spec.Specul.loads
        |> List.filter (fun (l : Specul.load_report) -> invariant_pc l.sl_pc)
      in
      Table.add_row table
        [ w.wname;
          Table.count spec.Specul.total_executions;
          Table.pct (Specul.conflict_rate spec ~select:(fun _ -> true));
          Printf.sprintf "%d/%d" (List.length selected)
            (Array.length spec.Specul.loads);
          Table.pct
            (Specul.conflict_rate spec ~select:(fun l ->
                 invariant_pc l.Specul.sl_pc));
          Table.pct
            (Specul.conflict_rate spec ~select:(fun l ->
                 not (invariant_pc l.Specul.sl_pc))) ])
    Harness.workloads;
  [ table ]
