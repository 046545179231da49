type config = {
  arities : (string * int) list;
  vconfig : Vstate.config;
  memo_capacity : int;
}

let default_config =
  { arities = []; vconfig = Vstate.default_config; memo_capacity = 4096 }

type pstate = {
  name : string;
  arity : int;
  mutable calls : int;
  params : Vstate.t array;
  return : Vstate.t;
  memo : (int64 list, unit) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_overflow : bool;
}

type proc_report = {
  r_name : string;
  r_calls : int;
  r_params : Metrics.t array;
  r_return : Metrics.t;
  r_memo_hits : int;
  r_memo_capacity_exceeded : bool;
}

type t = {
  procs : proc_report array;
  total_calls : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type live = { machine : Machine.t; states : pstate array; started : float }

let arg_regs = [| Isa.a0; Isa.a1; Isa.a2; Isa.a3; Isa.a4; Isa.a5 |]

let attach ?(config = default_config) machine =
  let prog = Machine.program machine in
  let states =
    Array.map
      (fun (p : Asm.proc) ->
        let arity =
          match List.assoc_opt p.pname config.arities with
          | Some n ->
            if n < 0 || n > Array.length arg_regs then
              invalid_arg "Procprof: arity out of range";
            n
          | None -> 0
        in
        { name = p.pname;
          arity;
          calls = 0;
          params = Array.init arity (fun _ -> Vstate.create ~config:config.vconfig ());
          return = Vstate.create ~config:config.vconfig ();
          memo = Hashtbl.create 64;
          memo_hits = 0;
          memo_overflow = false })
      prog.procs
  in
  Atom.instrument_proc_entries machine prog (fun p m ->
      let st = states.(p.pindex) in
      st.calls <- st.calls + 1;
      let args = ref [] in
      for i = st.arity - 1 downto 0 do
        let v = Machine.reg m arg_regs.(i) in
        Vstate.observe st.params.(i) v;
        args := v :: !args
      done;
      if st.arity > 0 then begin
        if Hashtbl.mem st.memo !args then st.memo_hits <- st.memo_hits + 1
        else if Hashtbl.length st.memo < config.memo_capacity then
          Hashtbl.replace st.memo !args ()
        else st.memo_overflow <- true
      end);
  Atom.instrument_proc_returns machine prog (fun p _m value ->
      Vstate.observe states.(p.pindex).return value);
  { machine; states; started = Counters.now () }

let collect live =
  let procs =
    Array.map
      (fun st ->
        { r_name = st.name;
          r_calls = st.calls;
          r_params = Array.map Vstate.metrics st.params;
          r_return = Vstate.metrics st.return;
          r_memo_hits = st.memo_hits;
          r_memo_capacity_exceeded = st.memo_overflow })
      live.states
  in
  Array.sort (fun a b -> compare b.r_calls a.r_calls) procs;
  let stats = Counters.create () in
  Array.iter
    (fun st ->
      let add vs =
        stats.Counters.events_profiled <-
          stats.Counters.events_profiled + Vstate.total vs;
        stats.Counters.tnv_clears <-
          stats.Counters.tnv_clears + Vstate.tnv_clears vs;
        stats.Counters.tnv_replacements <-
          stats.Counters.tnv_replacements + Vstate.tnv_replacements vs
      in
      Array.iter add st.params;
      add st.return)
    live.states;
  (* every parameter/return event this profiler sees is recorded *)
  stats.Counters.events_seen <- stats.Counters.events_profiled;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { procs;
    total_calls = Array.fold_left (fun acc p -> acc + p.r_calls) 0 procs;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine in
  ignore (Machine.run ?fuel machine);
  collect live

let memo_hit_rate t =
  let calls = ref 0 and hits = ref 0 in
  Array.iter
    (fun p ->
      if Array.length p.r_params > 0 then begin
        calls := !calls + p.r_calls;
        hits := !hits + p.r_memo_hits
      end)
    t.procs;
  if !calls = 0 then 0. else float_of_int !hits /. float_of_int !calls

module Profiler = Profiler_intf.Make (struct
  let name = "procs"

  type nonrec config = config

  let default_config = default_config

  type result = t
  type nonrec live = live

  let attach config machine = attach ~config machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (p : result) =
    Printf.sprintf "%d procedures, %s calls" (Array.length p.procs)
      (Table.count p.total_calls)
end)
