(* E08 — TNV replacement-policy ablation: the paper's LFU-with-periodic-
   clearing against pure LFU and LRU at the same (small) capacity, so the
   replacement decisions matter. Same one-run-per-workload design as E07. *)

let capacity = 4

let policies =
  [ ("lfu-clear", Tnv.Lfu_clear); ("lfu", Tnv.Lfu); ("lru", Tnv.Lru) ]

let measure w =
  Harness.tnv_sweep w
    (List.map (fun (_, p) () -> Tnv.create ~policy:p ~capacity ()) policies)

let run () =
  let headers =
    "program"
    :: List.concat_map (fun (n, _) -> [ n ^ " err"; n ^ " top" ]) policies
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E08 - TNV replacement policy ablation (capacity %d, loads, test input)"
           capacity)
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let per_policy = measure w in
      Table.add_row table
        (w.wname
         :: List.concat_map
              (fun (err, m) -> [ Table.pct err; Table.pct m ])
              per_policy))
    Harness.workloads;
  [ table ]
