(* E15 — profile-directed predictability classification (extension of the
   thesis's Gabbay [18] discussion): the value profile's delta (stride)
   table classifies every instruction as last-value-predictable,
   stride-predictable, or unpredictable, and a routed predictor gives each
   class its own table — or none. *)

let routed =
  Harness.profiled (fun profile ->
      E11_prediction.predicting
        [ Predictor.lvp ~bits:8 ();
          Predictor.stride ~bits:8 ();
          Predictor.hybrid (Predictor.lvp ~bits:8 ()) (Predictor.stride ~bits:8 ());
          Predictor.routed ~profile
            ~last_value:(Predictor.lvp ~bits:8 ())
            ~strided:(Predictor.stride ~bits:8 ())
            () ])

let needs =
  [ Harness.demand Workload.Test Harness.full;
    Harness.demand Workload.Test routed ]

let class_census_table () =
  let table =
    Table.create
      ~title:
        "E15a - Predictability classes by dynamic execution (profile-derived, test input)"
      [ "program"; "last-value"; "strided"; "unpredictable" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let profile = Harness.full_profile w Workload.Test in
      let weights = Hashtbl.create 4 in
      let bump cls n =
        Hashtbl.replace weights cls
          (n + Option.value ~default:0 (Hashtbl.find_opt weights cls))
      in
      Array.iter
        (fun (p : Profile.point) ->
          let m = p.p_metrics in
          if m.Metrics.total > 0 then
            bump (Metrics.predictor_class m) m.Metrics.total)
        profile.Profile.points;
      let total =
        Hashtbl.fold (fun _ n acc -> n + acc) weights 0 |> max 1
      in
      let pct cls =
        Table.pct
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt weights cls))
           /. float_of_int total)
      in
      Table.add_row table
        [ w.wname; pct Metrics.Last_value; pct Metrics.Strided;
          pct Metrics.Unpredictable ])
    Harness.workloads;
  table

let routed_table () =
  let table =
    Table.create
      ~title:
        "E15b - Routed prediction: profile chooses the predictor per instruction (256-entry tables)"
      [ "program"; "predictor"; "coverage"; "accuracy"; "correct rate";
        "evictions" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let results = Harness.get routed w Workload.Test in
      List.iter
        (fun (r : Predictor.result) ->
          Table.add_row table
            [ w.wname; r.pr_name;
              Table.pct r.pr_coverage;
              Table.pct r.pr_accuracy;
              Table.pct r.pr_correct_rate;
              Table.count r.pr_evictions ])
        results;
      Table.add_sep table)
    Harness.workloads;
  table

let run () = [ class_census_table (); routed_table () ]
