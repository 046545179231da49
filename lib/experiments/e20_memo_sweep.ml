(* E20 — memoization-cache size sweep (extending E13's Richardson [32]
   measurement): how large a cache of remembered argument tuples is
   needed before hit rates saturate? *)

let capacities = [ 16; 64; 256; 1024; 4096 ]

let rates =
  List.map
    (fun memo_capacity ->
      Harness.need
        ~config:(fun w -> { (Registry.procs.config w) with memo_capacity })
        Registry.procs Procprof.memo_hit_rate)
    capacities

let needs = List.map (Harness.demand Workload.Test) rates

let run () =
  let headers =
    "program" :: List.map (fun c -> Printf.sprintf "cap %d" c) capacities
  in
  let table =
    Table.create
      ~title:
        "E20 - Memoization-cache hit rate vs capacity (argument tuples per procedure, test input)"
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let rates = List.map (fun n -> Harness.get n w Workload.Test) rates in
      Table.add_row table (w.wname :: List.map Table.pct rates))
    Harness.workloads;
  [ table ]
