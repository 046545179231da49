(* E02 — Table IV.1: the Basic Block Quantile Table. For each program,
   the fraction of all dynamic basic-block executions covered by the
   hottest k% of static basic blocks — the classic evidence that most of
   execution lives in very little code. *)

let quantiles = [ 1.; 5.; 10.; 20.; 50. ]

(* Coverage of the top q% of blocks (by dynamic count, descending). *)
let coverage counts q =
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let n = Array.length sorted in
  let take = max 1 (int_of_float (ceil (float_of_int n *. q /. 100.))) in
  let total = Array.fold_left ( + ) 0 sorted in
  if total = 0 then 0.
  else begin
    let acc = ref 0 in
    for i = 0 to take - 1 do
      acc := !acc + sorted.(i)
    done;
    float_of_int !acc /. float_of_int total
  end

let needs = [ Harness.demand Workload.Test Harness.plain ]

let run () =
  let headers =
    "program" :: "blocks"
    :: List.map (fun q -> Printf.sprintf "top %.0f%%" q) quantiles
  in
  let table =
    Table.create
      ~title:
        "E02 / Table IV.1 - Basic Block Quantile Table (dynamic coverage of hottest static blocks, test input)"
      headers
  in
  List.iter
    (fun (w : Workload.t) ->
      let m = Harness.plain_run w Workload.Test in
      let prog = Machine.program m in
      let blocks = Cfg.build prog in
      let counts = Cfg.dynamic_counts m blocks in
      Table.add_row table
        (w.wname
         :: string_of_int (Array.length blocks)
         :: List.map (fun q -> Table.pct (coverage counts q)) quantiles))
    Harness.workloads;
  [ table ]
