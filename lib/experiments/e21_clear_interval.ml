(* E21 — TNV clear-interval sensitivity: the paper's LFU-clear policy has
   one tuning knob besides capacity — how often the replacement half is
   cleared. Too short destroys counts a new value needs to establish
   itself; too long locks early values in. Swept against the oracle at
   the paper's capacity. *)

let intervals = [ 50; 200; 1000; 2000; 10000 ]

let capacity = 8

(* per interval: weighted inv_top error *)
let measure w =
  Harness.tnv_sweep w
    (List.map (fun i () -> Tnv.create ~clear_interval:i ~capacity ()) intervals)
  |> List.map fst

let run () =
  let headers =
    "program" :: List.map (fun i -> Printf.sprintf "err @%d" i) intervals
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E21 - TNV clear-interval sensitivity (capacity %d, loads, Inv-Top error vs oracle)"
           capacity)
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let per = measure w in
      Table.add_row table (w.wname :: List.map Table.pct per))
    Harness.workloads;
  [ table ]
