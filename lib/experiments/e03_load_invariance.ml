(* E03 — load-value invariance (the thesis's headline load tables): per
   program, the execution-weighted LVP, Inv-Top, Inv-All, %zero and mean
   Diff over load instructions. *)

let metric_row name points =
  let w field = Profile.weighted points field in
  let diffs =
    List.filter_map
      (fun (p : Profile.point) ->
        if p.p_metrics.Metrics.total = 0 then None
        else Some (float_of_int p.p_metrics.Metrics.distinct))
      points
  in
  [ name;
    Table.pct (w (fun m -> m.Metrics.lvp));
    Table.pct (w (fun m -> m.Metrics.inv_top));
    Table.pct (w (fun m -> m.Metrics.inv_all));
    Table.pct (w (fun m -> m.Metrics.zero));
    Table.fixed ~digits:1 (Stats.mean (Array.of_list diffs)) ]

let needs = [ Harness.demand Workload.Test Harness.full ]

let run () =
  let table =
    Table.create
      ~title:
        "E03 - Load value invariance (test input, weighted by execution frequency)"
      [ "program"; "LVP"; "Inv-Top"; "Inv-All"; "%zero"; "mean Diff" ]
  in
  let all_points = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let profile = Harness.full_profile w Workload.Test in
      let loads = Harness.load_points profile in
      all_points := loads @ !all_points;
      Table.add_row table (metric_row w.wname loads))
    Harness.workloads;
  Table.add_sep table;
  Table.add_row table (metric_row "mean (all)" !all_points);
  [ table ]
