(* E18 — sampler convergence-criterion ablation ("many improvements can
   also be made for the intelligent sampler"): the thesis's
   change-in-invariance criterion against top-value-stability, at the same
   burst/skip settings. *)

let criteria =
  [ ("inv-delta (thesis)", Sampler.Inv_delta);
    ("top-stability", Sampler.Top_stability) ]
  |> List.map (fun (name, criterion) ->
         (name, Harness.sampled { Sampler.default_config with criterion }))

let needs =
  Harness.demand Workload.Test Harness.full
  :: List.map (fun (_, n) -> Harness.demand Workload.Test n) criteria

let run () =
  let table =
    Table.create
      ~title:
        "E18 - Convergence criterion ablation (default burst/skip, test input)"
      [ "program"; "criterion"; "overhead"; "inv error"; "converged pts" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let full = Harness.full_profile w Workload.Test in
      List.iter
        (fun (name, sampler) ->
          let sampled = Harness.get sampler w Workload.Test in
          let converged =
            Array.fold_left
              (fun acc (p : Sampler.point) ->
                if p.s_converged then acc + 1 else acc)
              0 sampled.Sampler.points
          in
          Table.add_row table
            [ w.wname; name;
              Table.pct sampled.Sampler.overhead;
              Table.pct (Sampler.invariance_error sampled full);
              Printf.sprintf "%d/%d" converged
                (Array.length sampled.Sampler.points) ])
        criteria;
      Table.add_sep table)
    Harness.workloads;
  [ table ]
