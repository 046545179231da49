(* E11 — value prediction (§II.A and the Gabbay [18] question): standard
   predictor models on our event stream, then profile-guided filtering —
   using the value profile to keep variant instructions out of a small
   predictor table trades coverage for accuracy and fewer conflicts. *)

let standard_predictors () =
  [ Predictor.lvp ~bits:10 ();
    Predictor.stride ~bits:10 ();
    Predictor.fcm ~bits:12 ();
    Predictor.hybrid (Predictor.lvp ~bits:10 ()) (Predictor.stride ~bits:10 ());
    Predictor.perfect_last () ]

let predicting predictors machine =
  let live = Predictor.attach machine predictors in
  fun () -> Predictor.collect live

let models = Harness.attachable (fun m -> predicting (standard_predictors ()) m)

(* read the finished test profile, so they run on the second unit *)
let filtered =
  Harness.profiled (fun profile ->
      predicting
        [ Predictor.lvp ~bits:6 ();
          Predictor.filtered ~profile ~threshold:0.5 (Predictor.lvp ~bits:6 ()) ])

let needs =
  [ Harness.demand Workload.Test models; Harness.demand Workload.Test filtered ]

let models_table () =
  let table =
    Table.create
      ~title:
        "E11a - Value predictor models (all value instructions, test input)"
      [ "program"; "predictor"; "coverage"; "accuracy"; "correct rate" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let results = Harness.get models w Workload.Test in
      List.iter
        (fun (r : Predictor.result) ->
          Table.add_row table
            [ w.wname; r.pr_name;
              Table.pct r.pr_coverage;
              Table.pct r.pr_accuracy;
              Table.pct r.pr_correct_rate ])
        results;
      Table.add_sep table)
    Harness.workloads;
  table

let filtered_table () =
  let table =
    Table.create
      ~title:
        "E11b - Profile-guided prediction with a small (64-entry) LVP table"
      [ "program"; "predictor"; "coverage"; "accuracy"; "evictions" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let results = Harness.get filtered w Workload.Test in
      List.iter
        (fun (r : Predictor.result) ->
          Table.add_row table
            [ w.wname; r.pr_name;
              Table.pct r.pr_coverage;
              Table.pct r.pr_accuracy;
              Table.count r.pr_evictions ])
        results;
      Table.add_sep table)
    Harness.workloads;
  table

let run () = [ models_table (); filtered_table () ]
