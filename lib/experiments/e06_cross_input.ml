(* E06 — Table V.5: load-value metrics on the test vs. train data sets,
   and the cross-input correlation of per-instruction invariance — the
   Wall [38] question: does a profile gathered on one input predict
   behaviour on another? *)

let paired_points (test_profile : Profile.t) (train_profile : Profile.t) =
  let pairs = ref [] in
  Array.iter
    (fun (tp : Profile.point) ->
      if Isa.category tp.p_instr = Isa.Load && tp.p_metrics.Metrics.total > 0
      then
        match Profile.point_at train_profile tp.p_pc with
        | Some rp when rp.p_metrics.Metrics.total > 0 -> pairs := (tp, rp) :: !pairs
        | Some _ | None -> ())
    test_profile.Profile.points;
  !pairs

let needs =
  [ Harness.demand Workload.Test Harness.full;
    Harness.demand Workload.Train Harness.full ]

let run () =
  let table =
    Table.create
      ~title:
        "E06 / Table V.5 - Load values on the test and train data sets"
      [ "program"; "LVP t"; "LVP tr"; "InvTop t"; "InvTop tr"; "InvAll t";
        "InvAll tr"; "Diff t"; "Diff tr"; "corr(InvTop)" ]
  in
  let correlations = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let pt = Harness.full_profile w Workload.Test in
      let ptr = Harness.full_profile w Workload.Train in
      let loads_t = Harness.load_points pt in
      let loads_tr = Harness.load_points ptr in
      let wt f = Profile.weighted loads_t f
      and wtr f = Profile.weighted loads_tr f in
      let mean_diff points =
        Stats.mean
          (Array.of_list
             (List.filter_map
                (fun (p : Profile.point) ->
                  if p.p_metrics.Metrics.total = 0 then None
                  else Some (float_of_int p.p_metrics.Metrics.distinct))
                points))
      in
      let pairs = paired_points pt ptr in
      let corr =
        if List.length pairs < 2 then nan
        else
          Stats.pearson
            (Array.of_list
               (List.map (fun ((a : Profile.point), _) -> a.p_metrics.Metrics.inv_top) pairs))
            (Array.of_list
               (List.map (fun (_, (b : Profile.point)) -> b.p_metrics.Metrics.inv_top) pairs))
      in
      if not (Float.is_nan corr) then correlations := corr :: !correlations;
      Table.add_row table
        [ w.wname;
          Table.pct (wt (fun m -> m.Metrics.lvp));
          Table.pct (wtr (fun m -> m.Metrics.lvp));
          Table.pct (wt (fun m -> m.Metrics.inv_top));
          Table.pct (wtr (fun m -> m.Metrics.inv_top));
          Table.pct (wt (fun m -> m.Metrics.inv_all));
          Table.pct (wtr (fun m -> m.Metrics.inv_all));
          Table.fixed ~digits:1 (mean_diff loads_t);
          Table.fixed ~digits:1 (mean_diff loads_tr);
          (if Float.is_nan corr then "n/a" else Table.fixed ~digits:2 corr) ])
    Harness.workloads;
  Table.add_sep table;
  Table.add_row table
    [ "mean corr"; ""; ""; ""; ""; ""; ""; ""; "";
      Table.fixed ~digits:2 (Stats.mean (Array.of_list !correlations)) ];
  [ table ]
