(* E01 — Table III.1: the benchmark programs, their two data sets, and
   dynamic instruction counts. *)

(* of the train run only its length is read, so its machine (memory
   included) is not kept *)
let train_icount = Harness.attachable (fun machine () -> Machine.icount machine)

let needs =
  [ Harness.demand Workload.Test Harness.plain;
    Harness.demand Workload.Train train_icount ]

let run () =
  let table =
    Table.create
      ~title:
        "E01 / Table III.1 - Benchmarks and data sets (dynamic instructions)"
      [ "program"; "mimics"; "static instrs"; "procs"; "test (dyn)";
        "train (dyn)"; "loads"; "stores" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let m_test = Harness.plain_run w Workload.Test in
      let prog = Machine.program m_test in
      let census = Atom.category_census prog in
      let count cat =
        match List.assoc_opt cat census with Some n -> n | None -> 0
      in
      Table.add_row table
        [ w.wname; w.wmimics;
          Table.count (Array.length prog.Asm.code);
          string_of_int (Array.length prog.Asm.procs);
          Table.count (Machine.icount m_test);
          Table.count (Harness.get train_icount w Workload.Train);
          Table.count (count Isa.Load);
          Table.count (count Isa.Store) ])
    Harness.workloads;
  [ table ]
