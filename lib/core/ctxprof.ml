type config = {
  arities : (string * int) list;
  vconfig : Vstate.config;
  max_contexts : int;
}

let default_config =
  { arities = []; vconfig = Vstate.default_config; max_contexts = 1 lsl 16 }

type context_report = {
  c_proc : string;
  c_site : int;
  c_calls : int;
  c_params : Metrics.t array;
}

type t = {
  contexts : context_report array;
  untracked_calls : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type cstate = {
  name : string;
  mutable calls : int;
  params : Vstate.t array;
}

type live = {
  machine : Machine.t;
  table : (int * int, cstate) Hashtbl.t; (* (proc index, site) *)
  config : config;
  mutable untracked : int;
  started : float;
}

let arg_regs = [| Isa.a0; Isa.a1; Isa.a2; Isa.a3; Isa.a4; Isa.a5 |]

let attach ?(config = default_config) machine =
  let prog = Machine.program machine in
  let live =
    { machine; table = Hashtbl.create 256; config; untracked = 0;
      started = Counters.now () }
  in
  Atom.instrument_proc_entries machine prog (fun p m ->
      match List.assoc_opt p.pname config.arities with
      | None | Some 0 -> ()
      | Some arity ->
        let site = Option.value ~default:(-1) (Machine.caller_pc m) in
        let key = (p.pindex, site) in
        let st =
          match Hashtbl.find_opt live.table key with
          | Some st -> Some st
          | None ->
            if Hashtbl.length live.table < config.max_contexts then begin
              let st =
                { name = p.pname;
                  calls = 0;
                  params =
                    Array.init arity (fun _ ->
                        Vstate.create ~config:config.vconfig ()) }
              in
              Hashtbl.replace live.table key st;
              Some st
            end
            else begin
              live.untracked <- live.untracked + 1;
              None
            end
        in
        match st with
        | None -> ()
        | Some st ->
          st.calls <- st.calls + 1;
          Array.iteri
            (fun i vs -> Vstate.observe vs (Machine.reg m arg_regs.(i)))
            st.params);
  live

let collect live =
  let contexts =
    Hashtbl.fold
      (fun (_, site) st acc ->
        { c_proc = st.name;
          c_site = site;
          c_calls = st.calls;
          c_params = Array.map Vstate.metrics st.params }
        :: acc)
      live.table []
    |> Array.of_list
  in
  Array.sort (fun a b -> compare b.c_calls a.c_calls) contexts;
  let stats = Counters.create () in
  let tracked_calls =
    Array.fold_left (fun acc c -> acc + c.c_calls) 0 contexts
  in
  stats.Counters.events_seen <- tracked_calls + live.untracked;
  stats.Counters.events_profiled <-
    Array.fold_left
      (fun acc c ->
        Array.fold_left (fun acc m -> acc + m.Metrics.total) acc c.c_params)
      0 contexts;
  Hashtbl.iter
    (fun _ st ->
      Array.iter
        (fun vs ->
          stats.Counters.tnv_clears <-
            stats.Counters.tnv_clears + Vstate.tnv_clears vs;
          stats.Counters.tnv_replacements <-
            stats.Counters.tnv_replacements + Vstate.tnv_replacements vs)
        st.params)
    live.table;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { contexts;
    untracked_calls = live.untracked;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine in
  ignore (Machine.run ?fuel machine);
  collect live

module Profiler = Profiler_intf.Make (struct
  let name = "contexts"

  type nonrec config = config

  let default_config = default_config

  type result = t
  type nonrec live = live

  let attach config machine = attach ~config machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (c : result) =
    Printf.sprintf "%d contexts, %s untracked calls" (Array.length c.contexts)
      (Table.count c.untracked_calls)
end)

let weighted_param_invariance t =
  let metrics =
    Array.to_list t.contexts
    |> List.concat_map (fun c -> Array.to_list c.c_params)
  in
  Metrics.weighted_mean (fun m -> m.Metrics.inv_top) metrics

let context_gain t (flat : Procprof.t) =
  let by_proc = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_proc c.c_proc)
      in
      Hashtbl.replace by_proc c.c_proc (Array.to_list c.c_params @ existing))
    t.contexts;
  Array.to_list flat.Procprof.procs
  |> List.filter_map (fun (r : Procprof.proc_report) ->
         if Array.length r.r_params = 0 || r.r_calls = 0 then None
         else
           match Hashtbl.find_opt by_proc r.r_name with
           | None -> None
           | Some ctx_metrics ->
             let flat_inv =
               Metrics.weighted_mean
                 (fun m -> m.Metrics.inv_top)
                 (Array.to_list r.r_params)
             in
             let ctx_inv =
               Metrics.weighted_mean (fun m -> m.Metrics.inv_top) ctx_metrics
             in
             Some (r.r_name, flat_inv, ctx_inv))
