type config = { vconfig : Vstate.config }

let default_config = { vconfig = Vstate.default_config }

type reg_report = {
  g_reg : Isa.reg;
  g_writes : int;
  g_metrics : Metrics.t;
}

type t = {
  regs : reg_report array;
  total_writes : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type live = {
  machine : Machine.t;
  states : Vstate.t array; (* indexed by register number *)
  started : float;
}

let attach ?(config = default_config) machine =
  let states =
    Array.init Isa.num_regs (fun _ -> Vstate.create ~config:config.vconfig ())
  in
  let prog = Machine.program machine in
  let pcs = Atom.select prog `All in
  List.iter
    (fun pc ->
      match Isa.dest_reg prog.Asm.code.(pc) with
      | None -> ()
      | Some rd ->
        let vs = states.(rd) in
        Machine.add_observer machine pc (fun () ->
            Vstate.observe vs (Machine.value machine)))
    pcs;
  { machine; states; started = Counters.now () }

let collect live =
  let regs =
    Array.to_list live.states
    |> List.mapi (fun r vs ->
           { g_reg = r; g_writes = Vstate.total vs; g_metrics = Vstate.metrics vs })
    |> List.filter (fun g -> g.g_writes > 0)
    |> Array.of_list
  in
  Array.sort (fun a b -> compare b.g_writes a.g_writes) regs;
  let total_writes = Array.fold_left (fun acc g -> acc + g.g_writes) 0 regs in
  let stats = Counters.create () in
  stats.Counters.events_seen <- total_writes;
  stats.Counters.events_profiled <- total_writes;
  Array.iter
    (fun vs ->
      stats.Counters.tnv_clears <- stats.Counters.tnv_clears + Vstate.tnv_clears vs;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements vs)
    live.states;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { regs;
    total_writes;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine in
  ignore (Machine.run ?fuel machine);
  collect live

let mean_metric t field =
  Metrics.weighted_mean field
    (Array.to_list t.regs |> List.map (fun g -> g.g_metrics))

module Profiler = Profiler_intf.Make (struct
  let name = "registers"

  type nonrec config = config

  let default_config = default_config

  type result = t
  type nonrec live = live

  let attach config machine = attach ~config machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (r : result) =
    Printf.sprintf "%d registers written, %s writes" (Array.length r.regs)
      (Table.count r.total_writes)
end)
