(* E19 — trivial computation (Richardson [32]): the fraction of dynamic
   arithmetic whose operands make the result immediate, split into cases a
   compiler could see statically (immediate operands) and cases only a
   value profile reveals (run-time register values). *)

let trivial = Harness.need Registry.trivial Fun.id

let needs = [ Harness.demand Workload.Test trivial ]

let run () =
  let table =
    Table.create
      ~title:"E19 - Trivial arithmetic operations (Richardson [32], test input)"
      [ "program"; "alu events"; "measured"; "trivial"; "via immediate";
        "via run-time value"; "top kind" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let r = Harness.get trivial w Workload.Test in
      Table.add_row table
        [ w.wname;
          Table.count r.Trivprof.alu_events;
          Table.count r.Trivprof.measured;
          Table.pct (Trivprof.trivial_fraction r);
          Table.count r.Trivprof.trivial_imm;
          Table.count r.Trivprof.trivial_dyn;
          (match r.Trivprof.by_kind with
           | [] -> "-"
           | (k, n) :: _ -> Printf.sprintf "%s (%s)" k (Table.count n)) ])
    Harness.workloads;
  [ table ]
