(* E13 — procedure-level profiling: parameter and return-value invariance
   of the hottest procedures, plus the Richardson [32] memoization
   opportunity (how often a procedure sees an argument tuple again). *)

let needs = [ Harness.demand Workload.Test Harness.procs ]

let run () =
  let table =
    Table.create
      ~title:
        "E13 - Procedure parameter/return invariance and memoization (test input)"
      [ "program"; "procedure"; "calls"; "param Inv-Top (per arg)";
        "ret Inv-Top"; "memo hits" ]
  in
  let rates = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let pp = Harness.proc_profile w Workload.Test in
      Array.iter
        (fun (r : Procprof.proc_report) ->
          if r.r_calls > 0 then begin
            let params =
              if Array.length r.r_params = 0 then "-"
              else
                String.concat " / "
                  (Array.to_list
                     (Array.map
                        (fun (m : Metrics.t) -> Table.pct m.inv_top)
                        r.r_params))
            in
            let memo =
              if Array.length r.r_params = 0 then "-"
              else Table.pct (float_of_int r.r_memo_hits /. float_of_int r.r_calls)
            in
            Table.add_row table
              [ w.wname; r.r_name;
                Table.count r.r_calls;
                params;
                Table.pct r.r_return.Metrics.inv_top;
                memo ]
          end)
        pp.Procprof.procs;
      rates := Procprof.memo_hit_rate pp :: !rates;
      Table.add_sep table)
    Harness.workloads;
  let summary =
    Table.create ~title:"E13b - Memoization-cache hit rate per program"
      [ "program"; "hit rate" ]
  in
  List.iter2
    (fun (w : Workload.t) rate ->
      Table.add_row summary [ w.wname; Table.pct rate ])
    Harness.workloads (List.rev !rates);
  [ table; summary ]
