(* E20 — memoization-cache size sweep (extending E13's Richardson [32]
   measurement): how large a cache of remembered argument tuples is
   needed before hit rates saturate? *)

let capacities = [ 16; 64; 256; 1024; 4096 ]

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
      let rates =
        List.map
          (fun memo_capacity ->
            let config = { (Registry.procs.config w) with memo_capacity } in
            let pp = Procprof.run ~config (w.wbuild Workload.Test) in
            Procprof.memo_hit_rate pp)
          capacities
      in
      Table.add_row table (w.wname :: List.map Table.pct rates))
    Harness.workloads;
  [ table ]
