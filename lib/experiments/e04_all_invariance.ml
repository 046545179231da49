(* E04 — invariance of all value-producing instructions, split by
   category (the thesis reports loads, ALU, and all instructions
   separately). *)

let categories =
  [ ("all", fun (_ : Profile.point) -> true);
    ("loads", fun p -> Isa.category p.Profile.p_instr = Isa.Load);
    ("alu", fun p -> Isa.category p.Profile.p_instr = Isa.Alu) ]

let needs = [ Harness.demand Workload.Test Harness.full ]

let run () =
  let table =
    Table.create
      ~title:
        "E04 - Instruction invariance by category (test input, weighted)"
      [ "program"; "class"; "points"; "LVP"; "Inv-Top"; "Inv-All"; "%zero" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let profile = Harness.full_profile w Workload.Test in
      let points = Harness.value_points profile in
      List.iter
        (fun (cname, pred) ->
          let sel = List.filter pred points in
          let wf field = Profile.weighted sel field in
          Table.add_row table
            [ w.wname; cname;
              string_of_int (List.length sel);
              Table.pct (wf (fun m -> m.Metrics.lvp));
              Table.pct (wf (fun m -> m.Metrics.inv_top));
              Table.pct (wf (fun m -> m.Metrics.inv_all));
              Table.pct (wf (fun m -> m.Metrics.zero)) ])
        categories;
      Table.add_sep table)
    Harness.workloads;
  [ table ]
