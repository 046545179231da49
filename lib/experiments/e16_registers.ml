(* E16 — register-granularity value profiling (the Gabbay [17]
   register-file prediction discussion of §II): invariance of the values
   written to each architectural register, aggregated over all
   instructions targeting it. *)

let reg_class r =
  if r = Isa.v0 then "v0"
  else if r >= Isa.a0 && r <= Isa.a5 then "args"
  else if r >= Isa.t0 && r <= Isa.t7 then "temps"
  else if r >= Isa.s0 && r <= Isa.s5 then "saved"
  else "other"

let registers = Harness.need Registry.registers Fun.id

let needs = [ Harness.demand Workload.Test registers ]

let run () =
  let table =
    Table.create
      ~title:
        "E16 - Register value profiling (all writes per architectural register, test input)"
      [ "program"; "class"; "writes"; "LVP"; "Inv-Top"; "Inv-All"; "%zero" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let r = Harness.get registers w Workload.Test in
      (* aggregate per register class, weighted by writes *)
      let classes = [ "v0"; "args"; "temps"; "saved" ] in
      List.iter
        (fun cls ->
          let members =
            Array.to_list r.Regprof.regs
            |> List.filter (fun (g : Regprof.reg_report) ->
                   reg_class g.g_reg = cls)
          in
          if members <> [] then begin
            let metrics = List.map (fun (g : Regprof.reg_report) -> g.g_metrics) members in
            let writes =
              List.fold_left
                (fun acc (g : Regprof.reg_report) -> acc + g.g_writes)
                0 members
            in
            let wm field = Metrics.weighted_mean field metrics in
            Table.add_row table
              [ w.wname; cls;
                Table.count writes;
                Table.pct (wm (fun m -> m.Metrics.lvp));
                Table.pct (wm (fun m -> m.Metrics.inv_top));
                Table.pct (wm (fun m -> m.Metrics.inv_all));
                Table.pct (wm (fun m -> m.Metrics.zero)) ]
          end)
        classes;
      Table.add_sep table)
    Harness.workloads;
  [ table ]
