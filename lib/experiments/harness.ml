let workloads = Workloads.all

(* Domain-safe once-per-key cache: when the parallel driver runs several
   experiments at once, the first to need a workload's data computes it
   and the rest block on the latch instead of duplicating the run.

   One entry serves all three consumers — the plain machine state, the
   full value profile, and the procedure profile — from a SINGLE machine
   execution: instrumentation is additive, so the full profiler and the
   procedure profiler attach to the same machine, and hooks never perturb
   architectural state (registers, memory, icount, exec counts), so the
   machine doubles as the "plain run". Before fusion the suite executed
   every workload/input up to three times. *)

type entry = {
  e_machine : Machine.t;
  e_profile : Profile.t;
  e_procprof : Procprof.t;
}

let cache : (string * Workload.input, entry) Memo_cache.t =
  Memo_cache.create ~size:32 ()

let entry (w : Workload.t) input =
  Memo_cache.find_or_compute cache (w.wname, input) (fun () ->
      let machine = Machine.create (w.wbuild input) in
      let (profile_live, proc_live), observers =
        Machine.with_attachment machine (fun () ->
            ( Profile.attach machine `All,
              Procprof.attach ~config:(Registry.procs.config w) machine ))
      in
      ignore (Machine.run machine);
      let e =
        { e_machine = machine;
          e_profile = Profile.collect profile_live;
          e_procprof = Procprof.collect proc_live }
      in
      (* the memoized machine would otherwise keep every point's live
         profiling state reachable through its dispatch table *)
      Machine.detach machine observers;
      e)

(* Cross-invocation profile reuse: with a store attached, a memo miss
   consults the store before executing the machine, and a computed
   profile is committed for the next invocation. Memo first, store
   second: in-process repeats never pay the decode. *)

let store_ref : Store.t option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s

let store () = Atomic.get store_ref

let profile_key (w : Workload.t) input ~shards =
  Store.Fingerprint.(
    key
      (make ~shards
         ~config:
           (profile_config Vstate.default_config ~selection:"all")
         ~profiler:"full" ~workload:w.wname
         ~input:(Workload.string_of_input input) ()))

let stored_profile (w : Workload.t) input ~shards compute =
  match store () with
  | None -> compute ()
  | Some s ->
    let key = profile_key w input ~shards in
    (match Store.get_profile s ~program:(w.wbuild input) ~key with
     | Some p -> p
     | None ->
       let p = compute () in
       Store.put_profile s ~key p;
       p)

(* Sharded full profiles are memoized separately, keyed by the shard
   count, so flipping --shards mid-process never aliases a serial result
   and vice versa. The plain machine state and the procedure profile stay
   with the fused single execution either way — sharding only accelerates
   the value profile, the one consumer whose result merges. *)
let sharded_cache : (string * Workload.input * int, Profile.t) Memo_cache.t =
  Memo_cache.create ~size:32 ()

let sharded_profile ?jobs (w : Workload.t) input ~shards =
  let shards = max 1 shards in
  Memo_cache.find_or_compute sharded_cache (w.wname, input, shards) (fun () ->
      stored_profile w input ~shards (fun () -> Shard.profile ?jobs ~shards w input))

let shard_count = Atomic.make 1

let set_shards k = Atomic.set shard_count (max 1 k)

let shards () = Atomic.get shard_count

(* Store-served full profiles get their own memo table: the fused [cache]
   entry only exists once a machine has actually run. *)
let stored_full_cache : (string * Workload.input, Profile.t) Memo_cache.t =
  Memo_cache.create ~size:32 ()

let full_profile w input =
  match (shards (), store ()) with
  | 1, None -> (entry w input).e_profile
  | 1, Some _ ->
    Memo_cache.find_or_compute stored_full_cache (w.wname, input) (fun () ->
        stored_profile w input ~shards:1 (fun () -> (entry w input).e_profile))
  | k, _ -> sharded_profile w input ~shards:k

let plain_run w input = (entry w input).e_machine

let proc_profile w input = (entry w input).e_procprof

(* Machine executions performed so far (tests assert fusion: one per
   workload/input however many accessors were hit). *)
let machine_runs () = Memo_cache.computations cache

let clear_cache () =
  Memo_cache.clear cache;
  Memo_cache.clear sharded_cache;
  Memo_cache.clear stored_full_cache

let load_points p = Profile.points_by_category p Isa.Load

let value_points p = Array.to_list p.Profile.points

(* One instrumented run of the test input feeds every load event to an
   exact oracle and to each table of the sweep, so all tables observe
   the same stream. *)
let tnv_sweep (w : Workload.t) tables =
  let prog = w.wbuild Workload.Test in
  let machine = Machine.create prog in
  let points =
    List.map
      (fun pc ->
        let oracle = Oracle.create () in
        let tnvs = Array.of_list (List.map (fun make -> make ()) tables) in
        Machine.add_observer machine pc (fun () ->
            let v = Machine.value machine in
            Oracle.observe oracle v;
            for i = 0 to Array.length tnvs - 1 do
              Tnv.add (Array.unsafe_get tnvs i) v
            done);
        (oracle, tnvs))
      (Atom.select prog `Loads)
  in
  ignore (Machine.run machine);
  List.mapi
    (fun k _ ->
      let err = ref 0. and top = ref 0. and den = ref 0. in
      List.iter
        (fun (oracle, tnvs) ->
          let total = Oracle.total oracle in
          if total > 0 then begin
            let tnv = tnvs.(k) and weight = float_of_int total in
            den := !den +. weight;
            err :=
              !err
              +. (weight *. abs_float (Tnv.inv_top tnv -. Oracle.inv_top oracle));
            match (Tnv.top tnv, Oracle.top oracle) with
            | Some (v, _), Some (ov, _) when Int64.equal v ov ->
              top := !top +. weight
            | _ -> ()
          end)
        points;
      if !den = 0. then (0., 1.) else (!err /. !den, !top /. !den))
    tables
