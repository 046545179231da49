(* E10 — memory-location value profiling (Chapter VII): how invariant are
   the values stored at individual memory locations? *)

(* the row figures, computed when the unit collects: the location array
   is not kept *)
let rows =
  Harness.need Registry.memory (fun r ->
      [ Table.count (Array.length r.Memprof.locations);
        Table.count r.Memprof.tracked_events;
        Table.pct (Memprof.mean_metric r (fun m -> m.Metrics.inv_top));
        Table.pct (Memprof.mean_metric r (fun m -> m.Metrics.lvp));
        Table.pct (Memprof.fraction_invariant r ~threshold:0.9);
        Table.pct (Memprof.fraction_invariant ~weighted:false r ~threshold:0.9);
        Table.pct (Memprof.mean_metric r (fun m -> m.Metrics.zero)) ])

let needs = [ Harness.demand Workload.Test rows ]

let run () =
  let table =
    Table.create
      ~title:
        "E10 - Memory-location value profiling (loads+stores, test input)"
      [ "program"; "locations"; "events"; "InvTop (wt)"; "LVP (wt)";
        ">=90% inv (wt)"; ">=90% inv (loc)"; "%zero" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Table.add_row table (w.wname :: Harness.get rows w Workload.Test))
    Harness.workloads;
  [ table ]
