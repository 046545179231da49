(* E05 — the invariance-distribution figure: Inv-Top of every
   value-producing instruction bucketed into 10%-wide bins, weighted by
   execution frequency ("the y-axis entry is non-accumulative", §III.D).
   One row per program; the columns are the figure's bars. *)

let buckets = 10

let needs = [ Harness.demand Workload.Test Harness.full ]

let run () =
  let headers =
    "program"
    :: List.init buckets (fun i ->
           Printf.sprintf "%d-%d" (i * 100 / buckets) ((i + 1) * 100 / buckets))
  in
  let table =
    Table.create
      ~title:
        "E05 - Distribution of Inv-Top across dynamic execution (test input; % of executions per invariance bucket)"
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let profile = Harness.full_profile w Workload.Test in
      let hist = Histogram.create ~buckets ~lo:0. ~hi:1. in
      Array.iter
        (fun (p : Profile.point) ->
          let m = p.p_metrics in
          if m.Metrics.total > 0 then
            Histogram.add hist m.Metrics.inv_top
              ~weight:(float_of_int m.Metrics.total))
        profile.Profile.points;
      Table.add_row table
        (w.wname
         :: List.init buckets (fun i -> Table.pct (Histogram.fraction hist i))))
    Harness.workloads;
  [ table ]
