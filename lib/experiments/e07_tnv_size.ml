(* E07 — accuracy of the bounded TNV table against the exact (oracle)
   profile, across table sizes. Two measures per size, weighted by
   execution frequency: mean absolute Inv-Top error, and how often the
   TNV's top value is the true top value. Loads only, test inputs, all in
   one instrumented run per workload (every size observes the same event
   stream). *)

let capacities = [ 1; 2; 4; 8; 16 ]

(* per capacity: (weighted inv_top error, weighted top-match rate) *)
let sweep =
  Harness.tnv_sweep
    (List.map
       (fun c -> { Vstate.default_config with tnv_capacity = c })
       capacities)

let needs = [ Harness.demand Workload.Test sweep ]

let run () =
  let headers =
    "program"
    :: List.concat_map
         (fun c -> [ Printf.sprintf "err N=%d" c; Printf.sprintf "top N=%d" c ])
         capacities
  in
  let table =
    Table.create
      ~title:
        "E07 - TNV table size vs oracle (loads, test input): Inv-Top error and top-value identification"
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let per_cap = Harness.get sweep w Workload.Test in
      Table.add_row table
        (w.wname
         :: List.concat_map
              (fun (err, m) -> [ Table.pct err; Table.pct m ])
              per_cap))
    Harness.workloads;
  [ table ]
