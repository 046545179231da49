(* E14 — profiling overhead, measured in analysis events (the quantity
   that dominated ATOM's slowdown): dynamic instructions, events under
   full profiling, events under the convergent sampler, and the
   reduction. Wall-clock cost of the OCaml sampler itself is perfbench's
   sampler.ns_per_step. *)

let sampler = Harness.sampled Sampler.default_config

let needs =
  [ Harness.demand Workload.Test Harness.full;
    Harness.demand Workload.Test sampler ]

let run () =
  let table =
    Table.create
      ~title:
        "E14 - Profiling overhead: full vs convergent sampling (test input)"
      [ "program"; "dyn instrs"; "full events"; "sampled events";
        "reduction"; "sample overhead" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let full = Harness.full_profile w Workload.Test in
      let sampled = Harness.get sampler w Workload.Test in
      let reduction =
        if sampled.Sampler.profiled_events = 0 then infinity
        else
          float_of_int full.Profile.profiled_events
          /. float_of_int sampled.Sampler.profiled_events
      in
      Table.add_row table
        [ w.wname;
          Table.count full.Profile.dynamic_instructions;
          Table.count full.Profile.profiled_events;
          Table.count sampled.Sampler.profiled_events;
          Printf.sprintf "%.1fx" reduction;
          Table.pct sampled.Sampler.overhead ])
    Harness.workloads;
  [ table ]
