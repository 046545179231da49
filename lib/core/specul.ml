type load_report = {
  sl_pc : int;
  sl_executions : int;
  sl_conflicts : int;
  sl_conflict_rate : float;
}

type t = {
  loads : load_report array;
  total_executions : int;
  total_conflicts : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type load_state = {
  pc : int;
  mutable executions : int;
  mutable conflicts : int;
  (* address -> global modification sequence seen at our previous read *)
  seen : (int64, int) Hashtbl.t;
  mutable saturated : bool;
}

type live = {
  machine : Machine.t;
  max_tracked : int;
  (* address -> sequence number of the last store that CHANGED it *)
  mod_seq : (int64, int) Hashtbl.t;
  (* address -> last content we observed there (via load or store) *)
  content : (int64, int64) Hashtbl.t;
  mutable clock : int;
  states : load_state list;
  mutable store_events : int;
  started : float;
}

let attach ?(max_tracked = 1 lsl 16) machine =
  let prog = Machine.program machine in
  let states =
    Atom.select prog `Loads
    |> List.map (fun pc ->
           { pc; executions = 0; conflicts = 0; seen = Hashtbl.create 256;
             saturated = false })
  in
  let live =
    { machine; max_tracked; mod_seq = Hashtbl.create 4096;
      content = Hashtbl.create 4096; clock = 0; states;
      store_events = 0; started = Counters.now () }
  in
  (* a store bumps its address's sequence only when it changes content —
     silent stores would pass the value check *)
  let store_pcs = Atom.select prog `Stores in
  List.iter
    (fun pc ->
      Machine.add_observer machine pc (fun () ->
          let value = Machine.value machine and addr = Machine.addr machine in
          live.store_events <- live.store_events + 1;
          let changed =
            match Hashtbl.find_opt live.content addr with
            | Some old -> not (Int64.equal old value)
            | None ->
              (* never observed: assume changed unless it stores the
                 zero a fresh page would hold *)
              not (Int64.equal value 0L)
          in
          Hashtbl.replace live.content addr value;
          if changed then begin
            live.clock <- live.clock + 1;
            Hashtbl.replace live.mod_seq addr live.clock
          end))
    store_pcs;
  List.iter
    (fun st ->
      Machine.add_observer machine st.pc (fun () ->
          let value = Machine.value machine and addr = Machine.addr machine in
          Hashtbl.replace live.content addr value;
          st.executions <- st.executions + 1;
          let last_mod =
            Option.value ~default:0 (Hashtbl.find_opt live.mod_seq addr)
          in
          (match Hashtbl.find_opt st.seen addr with
           | Some prev_seen -> if last_mod > prev_seen then st.conflicts <- st.conflicts + 1
           | None ->
             (* first read of this address by this load: hoisting has no
                earlier execution to conflict with *)
             ());
          if Hashtbl.length st.seen < live.max_tracked then
            Hashtbl.replace st.seen addr last_mod
          else if not (Hashtbl.mem st.seen addr) then begin
            (* capped: treat untrackable addresses conservatively *)
            st.saturated <- true;
            st.conflicts <- st.conflicts + 1
          end
          else Hashtbl.replace st.seen addr last_mod))
    live.states;
  live

let collect live =
  let loads =
    live.states
    |> List.map (fun st ->
           { sl_pc = st.pc;
             sl_executions = st.executions;
             sl_conflicts = st.conflicts;
             sl_conflict_rate =
               (if st.executions = 0 then 0.
                else float_of_int st.conflicts /. float_of_int st.executions) })
    |> Array.of_list
  in
  Array.sort (fun a b -> compare b.sl_executions a.sl_executions) loads;
  let total_executions =
    Array.fold_left (fun acc l -> acc + l.sl_executions) 0 loads
  in
  let stats = Counters.create () in
  stats.Counters.events_seen <- total_executions + live.store_events;
  stats.Counters.events_profiled <- total_executions;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { loads;
    total_executions;
    total_conflicts = Array.fold_left (fun acc l -> acc + l.sl_conflicts) 0 loads;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?max_tracked ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?max_tracked machine in
  ignore (Machine.run ?fuel machine);
  collect live

type profiler_config = { max_tracked : int }

module Profiler = Profiler_intf.Make (struct
  let name = "speculate"

  type config = profiler_config

  let default_config = { max_tracked = 1 lsl 16 }

  type result = t
  type nonrec live = live

  let attach config machine = attach ~max_tracked:config.max_tracked machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (s : result) =
    Printf.sprintf "%d loads, %s conflicts in %s executions"
      (Array.length s.loads)
      (Table.count s.total_conflicts)
      (Table.count s.total_executions)
end)

let conflict_rate t ~select =
  let execs = ref 0 and conflicts = ref 0 in
  Array.iter
    (fun l ->
      if select l then begin
        execs := !execs + l.sl_executions;
        conflicts := !conflicts + l.sl_conflicts
      end)
    t.loads;
  if !execs = 0 then 0. else float_of_int !conflicts /. float_of_int !execs
