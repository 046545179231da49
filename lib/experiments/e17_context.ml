(* E17 — context-sensitive parameter profiling (the thesis's future-work
   pointer to Young & Smith [40]): splitting a procedure's parameter
   profile by call site can only raise observed invariance; this measures
   by how much, per procedure and per workload. *)

let run () =
  let table =
    Table.create
      ~title:
        "E17 - Parameter invariance: aggregate vs per-call-site (test input)"
      [ "program"; "procedure"; "sites"; "flat Inv-Top"; "per-site Inv-Top";
        "gain" ]
  in
  let flat_means = ref [] and ctx_means = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let prog = w.wbuild Workload.Test in
      let flat = Harness.proc_profile w Workload.Test in
      let ctx = Ctxprof.run ~config:(Registry.contexts.config w) prog in
      let sites_of proc =
        Array.to_list ctx.Ctxprof.contexts
        |> List.filter (fun (c : Ctxprof.context_report) -> c.c_proc = proc)
        |> List.length
      in
      List.iter
        (fun (name, flat_inv, ctx_inv) ->
          flat_means := flat_inv :: !flat_means;
          ctx_means := ctx_inv :: !ctx_means;
          Table.add_row table
            [ w.wname; name;
              string_of_int (sites_of name);
              Table.pct flat_inv;
              Table.pct ctx_inv;
              Printf.sprintf "%+.1fpp" (100. *. (ctx_inv -. flat_inv)) ])
        (Ctxprof.context_gain ctx flat);
      Table.add_sep table)
    Harness.workloads;
  Table.add_row table
    [ "mean"; ""; "";
      Table.pct (Stats.mean (Array.of_list !flat_means));
      Table.pct (Stats.mean (Array.of_list !ctx_means));
      Printf.sprintf "%+.1fpp"
        (100.
         *. (Stats.mean (Array.of_list !ctx_means)
             -. Stats.mean (Array.of_list !flat_means))) ];
  [ table ]
