(* E23 — the memoization transform (Richardson [32]) applied to the
   procedures the procedure profile (E13/E20) flags. Only procedures that
   are pure modulo read-only memory are legal targets — the list below is
   that audit for the bundled workloads (e.g. go's `eval` reads the
   mutating board and m88ksim's `decode` writes a scratch area, so
   neither appears). li's `arith` is pure but its argument tuples never
   repeat: the honest negative the profile predicts (0% memo hits). *)

let candidates =
  [ ("perl", "hash_word", 2); ("li", "arith", 3); ("vortex", "find", 2) ]

let needs =
  let only = List.map (fun (w, _, _) -> w) candidates in
  [ Harness.demand ~only Workload.Test Harness.procs;
    Harness.demand ~only Workload.Test Harness.plain ]

let run () =
  let table =
    Table.create
      ~title:
        "E23 - Memoization transform on profile-flagged pure procedures (test input)"
      [ "program"; "procedure"; "profile hit rate"; "dyn before"; "dyn after";
        "change"; "same result" ]
  in
  List.iter
    (fun (wname, proc, arity) ->
      let w = Workloads.find wname in
      let original = Harness.plain_run w Workload.Test in
      let prog = Machine.program original in
      let pp = Harness.proc_profile w Workload.Test in
      let profile_rate =
        match
          Array.find_opt
            (fun (r : Procprof.proc_report) -> r.r_name = proc)
            pp.Procprof.procs
        with
        | Some r when r.r_calls > 0 ->
          float_of_int r.r_memo_hits /. float_of_int r.r_calls
        | Some _ | None -> 0.
      in
      match Memoize.memoize prog ~proc ~arity with
      | report ->
        let equal, before, after = Memoize.differential ~original prog report in
        Table.add_row table
          [ wname; proc;
            Table.pct profile_rate;
            Table.count before;
            Table.count after;
            Printf.sprintf "%+.1f%%"
              (100. *. float_of_int (after - before) /. float_of_int before);
            (if equal then "yes" else "NO") ]
      | exception Body.Unsupported msg ->
        Table.add_row table [ wname; proc; Table.pct profile_rate; "-"; "-"; msg; "-" ])
    candidates;
  [ table ]
