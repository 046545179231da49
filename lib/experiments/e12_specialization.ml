(* E12 — code specialization (Chapter X): pick each workload's best
   semi-invariant procedure parameter from the procedure profile,
   specialize on its dominant value, check the rewritten program computes
   the same result, and report the dynamic-instruction change. *)

type outcome = {
  o_workload : string;
  o_proc : string;
  o_param : Isa.reg;
  o_value : int64;
  o_inv : float;
  o_report : Specialize.report option; (* None when unsupported *)
  o_equal : bool;
  o_icount_before : int;
  o_icount_after : int;
}

let needs =
  [ Harness.demand Workload.Test Harness.procs;
    Harness.demand Workload.Test Harness.plain ]

(* Try candidates in order until one specializes cleanly. The original
   side of the differential check is the harness's plain run. *)
let attempt (w : Workload.t) =
  let pp = Harness.proc_profile w Workload.Test in
  let candidates = Specialize.candidates pp ~min_calls:100 ~min_inv:0.5 in
  let original = Harness.plain_run w Workload.Test in
  let prog = Machine.program original in
  let rec go = function
    | [] -> None
    | (proc, param, value, inv) :: rest ->
      (match Specialize.specialize prog ~proc ~param ~value with
       | report ->
         let equal, before, after =
           Specialize.differential ~original prog report.Specialize.sp_program
         in
         Some
           { o_workload = w.wname; o_proc = proc; o_param = param;
             o_value = value; o_inv = inv; o_report = Some report;
             o_equal = equal; o_icount_before = before;
             o_icount_after = after }
       | exception Body.Unsupported _ -> go rest)
  in
  go candidates

let outcomes () = List.filter_map attempt Harness.workloads

let run () =
  let table =
    Table.create
      ~title:
        "E12 / Ch. X - Code specialization on semi-invariant parameters (test input)"
      [ "program"; "procedure"; "param"; "value"; "Inv-Top"; "body before";
        "body after"; "folded"; "branches"; "dead"; "dyn before";
        "dyn after"; "change"; "same result" ]
  in
  List.iter
    (fun o ->
      match o.o_report with
      | None -> ()
      | Some r ->
        let change =
          float_of_int (o.o_icount_after - o.o_icount_before)
          /. float_of_int o.o_icount_before
        in
        Table.add_row table
          [ o.o_workload; o.o_proc;
            Isa.string_of_reg o.o_param;
            Int64.to_string o.o_value;
            Table.pct o.o_inv;
            string_of_int r.Specialize.sp_static_before;
            string_of_int r.Specialize.sp_static_after;
            string_of_int r.Specialize.sp_folded;
            string_of_int r.Specialize.sp_branches_resolved;
            string_of_int r.Specialize.sp_dead_removed;
            Table.count o.o_icount_before;
            Table.count o.o_icount_after;
            Printf.sprintf "%+.1f%%" (100. *. change);
            (if o.o_equal then "yes" else "NO") ])
    (outcomes ());
  [ table ]
