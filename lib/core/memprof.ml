type mode = Loads | Stores | Both

type config = {
  mode : mode;
  vconfig : Vstate.config;
  max_locations : int;
}

let default_config =
  { mode = Both; vconfig = Vstate.default_config; max_locations = 1 lsl 18 }

type location = { l_addr : int64; l_metrics : Metrics.t }

type t = {
  locations : location array;
  tracked_events : int;
  untracked_events : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type live = {
  machine : Machine.t;
  table : (int64, Vstate.t) Hashtbl.t;
  config : config;
  mutable untracked : int;
  started : float;
}

let attach ?(config = default_config) machine =
  let live =
    { machine; table = Hashtbl.create 4096; config; untracked = 0;
      started = Counters.now () }
  in
  let observe () =
    let value = Machine.value machine and addr = Machine.addr machine in
    match Hashtbl.find_opt live.table addr with
    | Some vs -> Vstate.observe vs value
    | None ->
      if Hashtbl.length live.table < config.max_locations then begin
        let vs = Vstate.create ~config:config.vconfig () in
        Hashtbl.replace live.table addr vs;
        Vstate.observe vs value
      end
      else live.untracked <- live.untracked + 1
  in
  let prog = Machine.program machine in
  let selections =
    match config.mode with
    | Loads -> [ `Loads ]
    | Stores -> [ `Stores ]
    | Both -> [ `Loads; `Stores ]
  in
  List.iter
    (fun sel ->
      List.iter
        (fun pc -> Machine.add_observer machine pc observe)
        (Atom.select prog sel))
    selections;
  live

let collect live =
  let locations =
    Hashtbl.fold
      (fun addr vs acc -> { l_addr = addr; l_metrics = Vstate.metrics vs } :: acc)
      live.table []
    |> Array.of_list
  in
  Array.sort
    (fun a b -> compare b.l_metrics.Metrics.total a.l_metrics.Metrics.total)
    locations;
  let tracked =
    Array.fold_left (fun acc l -> acc + l.l_metrics.Metrics.total) 0 locations
  in
  let stats = Counters.create () in
  stats.Counters.events_seen <- tracked + live.untracked;
  stats.Counters.events_profiled <- tracked;
  Hashtbl.iter
    (fun _ vs ->
      stats.Counters.tnv_clears <-
        stats.Counters.tnv_clears + Vstate.tnv_clears vs;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements vs)
    live.table;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { locations;
    tracked_events = tracked;
    untracked_events = live.untracked;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine in
  ignore (Machine.run ?fuel machine);
  collect live

let fraction_invariant ?(weighted = true) t ~threshold =
  let num = ref 0. and den = ref 0. in
  Array.iter
    (fun l ->
      let w = if weighted then float_of_int l.l_metrics.Metrics.total else 1. in
      den := !den +. w;
      if l.l_metrics.Metrics.inv_top >= threshold then num := !num +. w)
    t.locations;
  if !den = 0. then 0. else !num /. !den

let mean_metric t field =
  Metrics.weighted_mean field
    (Array.to_list t.locations |> List.map (fun l -> l.l_metrics))

module Profiler = Profiler_intf.Make (struct
  let name = "memory"

  type nonrec config = config

  let default_config = default_config

  type result = t
  type nonrec live = live

  let attach config machine = attach ~config machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (m : result) =
    Printf.sprintf "%d locations, %s tracked events" (Array.length m.locations)
      (Table.count m.tracked_events)
end)
