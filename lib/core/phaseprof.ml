type config = {
  window : int;
  vconfig : Vstate.config;
  max_windows : int;
}

let default_config =
  { window = 2000; vconfig = Vstate.default_config; max_windows = 64 }

type point = {
  ph_pc : int;
  ph_instr : Isa.instr;
  ph_total : int;
  ph_overall : float;
  ph_windows : float array;
  ph_drift : float;
}

type t = {
  points : point array;
  dynamic_instructions : int;
  stats : Counters.t;
}

type state = {
  pc : int;
  overall : Vstate.t;
  mutable window_vs : Vstate.t;
  mutable in_window : int;
  mutable finished : float list; (* reversed *)
  mutable window_count : int;
  cfg : config;
}

type live = {
  machine : Machine.t;
  states : state list;
  started : float;
}

let close_window st =
  if Vstate.total st.window_vs > 0 then begin
    st.finished <- Vstate.inv_top st.window_vs :: st.finished;
    st.window_count <- st.window_count + 1
  end;
  (* past the cap, keep accumulating into one final merged window *)
  if st.window_count < st.cfg.max_windows then begin
    st.window_vs <- Vstate.create ~config:st.cfg.vconfig ();
    st.in_window <- 0
  end

let[@inline] observe st value =
  Vstate.observe st.overall value;
  Vstate.observe st.window_vs value;
  st.in_window <- st.in_window + 1;
  if st.in_window >= st.cfg.window && st.window_count < st.cfg.max_windows then
    close_window st

let attach ?(config = default_config) machine selection =
  if config.window <= 0 then invalid_arg "Phaseprof: window must be positive";
  let prog = Machine.program machine in
  let states =
    Atom.select prog selection
    |> List.map (fun pc ->
           { pc;
             overall = Vstate.create ~config:config.vconfig ();
             window_vs = Vstate.create ~config:config.vconfig ();
             in_window = 0;
             finished = [];
             window_count = 0;
             cfg = config })
  in
  List.iter
    (fun st ->
      Machine.add_observer machine st.pc (fun () ->
          observe st (Machine.value machine)))
    states;
  { machine; states; started = Counters.now () }

let collect live =
  let prog = Machine.program live.machine in
  let points =
    live.states
    |> List.map (fun st ->
           (* flush the trailing partial window *)
           let windows =
             let trailing =
               if Vstate.total st.window_vs > 0 then
                 [ Vstate.inv_top st.window_vs ]
               else []
             in
             Array.of_list (List.rev_append st.finished trailing)
           in
           let overall = Vstate.inv_top st.overall in
           let drift =
             Array.fold_left
               (fun acc w -> max acc (abs_float (w -. overall)))
               0. windows
           in
           { ph_pc = st.pc;
             ph_instr = prog.Asm.code.(st.pc);
             ph_total = Vstate.total st.overall;
             ph_overall = overall;
             ph_windows = windows;
             ph_drift = drift })
    |> Array.of_list
  in
  let stats = Counters.create () in
  let profiled = Array.fold_left (fun acc p -> acc + p.ph_total) 0 points in
  stats.Counters.events_seen <- profiled;
  stats.Counters.events_profiled <- profiled;
  List.iter
    (fun st ->
      stats.Counters.tnv_clears <-
        stats.Counters.tnv_clears + Vstate.tnv_clears st.overall;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements st.overall)
    live.states;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { points; dynamic_instructions = Machine.icount live.machine; stats }

let run ?config ?(selection = `All) ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine selection in
  ignore (Machine.run ?fuel machine);
  collect live

let mean_drift t =
  let num = ref 0. and den = ref 0. in
  Array.iter
    (fun p ->
      let w = float_of_int p.ph_total in
      num := !num +. (p.ph_drift *. w);
      den := !den +. w)
    t.points;
  if !den = 0. then 0. else !num /. !den

type profiler_config = { phase : config; selection : Atom.selection }

module Profiler = Profiler_intf.Make (struct
  let name = "phases"

  type config = profiler_config

  (* the CLI profiles loads by default; the adapter matches it *)
  let default_config = { phase = default_config; selection = `Loads }

  type result = t
  type nonrec live = live

  let attach config machine =
    attach ~config:config.phase machine config.selection

  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (p : result) =
    Printf.sprintf "%d points, mean drift %.2f%%" (Array.length p.points)
      (100. *. mean_drift p)
end)
