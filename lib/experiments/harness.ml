let workloads = Workloads.all

(* ---- needs ------------------------------------------------------------ *)

(* What a unit keeps of one need, tagged with the need's witness so a
   reader gets it back at its own type. *)
type kept = Kept : 'a Type.Id.t * 'a -> kept

(* Stage B attaches after the full value profile of the same workload and
   input exists; everything else attaches in stage A. *)
type stage = A | B

type 'a how =
  | Entry : {
      entry : ('c, 'r) Registry.entry;
      config : Workload.t -> 'c;
      finish : 'r -> 'a;
    }
      -> 'a how
  | Sweep : Vstate.config list -> (float * float) list how
  | Attach : stage * (Profile.t Lazy.t -> Machine.t -> unit -> 'a) -> 'a how

type 'a need = { id : 'a Type.Id.t; how : 'a how }

type any = Any : 'a need -> any

let make how = { id = Type.Id.make (); how }

let need ?config entry finish =
  make
    (Entry
       { entry;
         config = Option.value config ~default:entry.Registry.config;
         finish })

let attachable f = make (Attach (A, fun _ machine -> f machine))

let profiled f =
  make (Attach (B, fun profile machine -> f (Lazy.force profile) machine))
let tnv_sweep tables = make (Sweep tables)

let sampled config =
  need
    ~config:(fun w -> { (Registry.sample.config w) with Sampler.sampler = config })
    Registry.sample Fun.id

let plain = attachable (fun machine () -> machine)
let full = need Registry.profile Fun.id
let procs = need Registry.procs Fun.id

(* The stage-A unit of a workload/input that no plan covers: the plain
   run, the full value profile and the procedure profile, from one
   execution — what the harness served before experiments were planned. *)
let base = [ Any plain; Any full; Any procs ]

let stage_of (type a) (n : a need) =
  match n.how with Attach (stage, _) -> stage | Entry _ | Sweep _ -> A

let uid n = Type.Id.uid n.id

let has n needs = List.exists (fun (Any m) -> uid m = uid n) needs

let rec find : type a. a Type.Id.t -> kept list -> a option =
 fun id -> function
  | [] -> None
  | Kept (id', v) :: rest -> (
    match Type.Id.provably_equal id id' with
    | Some Type.Equal -> Some v
    | None -> find id rest)

(* ---- members: the profilers a unit attaches --------------------------- *)

(* Needs on the same registry profiler with structurally equal configs
   share one attachment (each keeps its own [finish]); every TNV sweep of
   a unit shares one member, one oracle per load feeding the union of the
   tables. *)
type member =
  | M_entry : {
      entry : ('c, 'r) Registry.entry;
      config : 'c;
      finishes : ('r -> kept) list;
    }
      -> member
  | M_sweep : {
      tables : Vstate.config list;
      readers : ((Vstate.config -> float * float) -> kept) list;
    }
      -> member
  | M_attach : (Profile.t Lazy.t -> Machine.t -> unit -> kept) -> member

let add_entry (type c r) (entry : (c, r) Registry.entry) (config : c)
    (keep : r -> kept) members =
  let rec go = function
    | [] -> [ M_entry { entry; config; finishes = [ keep ] } ]
    | (M_entry m as x) :: rest -> (
      match Type.Id.provably_equal entry.Registry.id m.entry.Registry.id with
      | Some Type.Equal when m.config = config ->
        M_entry { m with finishes = m.finishes @ [ keep ] } :: rest
      | _ -> x :: go rest)
    | x :: rest -> x :: go rest
  in
  go members

let add_sweep tables read members =
  let rec go = function
    | [] -> [ M_sweep { tables; readers = [ read ] } ]
    | M_sweep m :: rest ->
      let fresh = List.filter (fun t -> not (List.mem t m.tables)) tables in
      M_sweep { tables = m.tables @ fresh; readers = m.readers @ [ read ] }
      :: rest
    | x :: rest -> x :: go rest
  in
  go members

let add_need (w : Workload.t) members (Any n) =
  match n.how with
  | Entry { entry; config; finish } ->
    add_entry entry (config w) (fun r -> Kept (n.id, finish r)) members
  | Sweep tables ->
    add_sweep tables
      (fun score -> Kept (n.id, List.map score tables))
      members
  | Attach (_, f) ->
    let attach profile machine =
      let collect = f profile machine in
      fun () -> Kept (n.id, collect ())
    in
    members @ [ M_attach attach ]

(* One instrumented run feeds every load event to an exact oracle and to
   each table, so all tables observe the same stream. Per table, in
   order: the execution-weighted mean absolute Inv-Top error against the
   oracle, and the weighted rate at which the table's top value is the
   oracle's — [(0., 1.)] when the program executes no load. *)
let attach_sweep machine tables =
  let tables = Array.of_list tables in
  let points =
    List.map
      (fun pc ->
        let oracle = Oracle.create () in
        let tnvs =
          Array.map
            (fun (c : Vstate.config) ->
              Tnv.create ~policy:c.tnv_policy ~clear_interval:c.clear_interval
                ~capacity:c.tnv_capacity ())
            tables
        in
        Machine.add_observer machine pc (fun () ->
            let v = Machine.value machine in
            Oracle.observe oracle v;
            for i = 0 to Array.length tnvs - 1 do
              Tnv.add (Array.unsafe_get tnvs i) v
            done);
        (oracle, tnvs))
      (Atom.select (Machine.program machine) `Loads)
  in
  fun () ->
    Array.mapi
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

(* Attach one member; the returned thunk collects it, applying every
   finish it serves, so the unit keeps only what the readers read. *)
let attach_member profile machine = function
  | M_entry { entry; config; finishes } ->
    let (module P) = entry.Registry.profiler in
    let live = P.attach ~config machine in
    fun () ->
      let r = P.collect live in
      List.map (fun keep -> keep r) finishes
  | M_sweep { tables; readers } ->
    let collect = attach_sweep machine tables in
    fun () ->
      let scores = List.combine tables (Array.to_list (collect ())) in
      List.map (fun read -> read (fun t -> List.assoc t scores)) readers
  | M_attach f ->
    let collect = f profile machine in
    fun () -> [ collect () ]

(* ---- units ------------------------------------------------------------ *)

(* A unit is keyed by workload name, input and slot: the stage-A or
   stage-B unit of the plan (or of [base]), or the solo unit of one need
   that no plan covers. *)
type slot = Stage of stage | Solo of int

let cache : (string * Workload.input * slot, kept list) Memo_cache.t =
  Memo_cache.create ~size:64 ()

let shard_count = Atomic.make 1

let set_shards k = Atomic.set shard_count (max 1 k)

let shards () = Atomic.get shard_count

(* Cross-invocation profile reuse: with a store attached, a full-profile
   miss consults the store before executing the machine, and a computed
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
   and vice versa. Sharding only accelerates the value profile, the one
   need whose result merges; the other needs stay on the units. *)
let sharded_cache : (string * Workload.input * int, Profile.t) Memo_cache.t =
  Memo_cache.create ~size:32 ()

let sharded_profile ?jobs (w : Workload.t) input ~shards =
  let shards = max 1 shards in
  Memo_cache.find_or_compute sharded_cache (w.wname, input, shards) (fun () ->
      stored_profile w input ~shards (fun () -> Shard.profile ?jobs ~shards w input))

(* Store-served full profiles get their own memo table: a unit only
   exists once a machine has actually run. *)
let stored_full_cache : (string * Workload.input, Profile.t) Memo_cache.t =
  Memo_cache.create ~size:32 ()

(* The installed plan, in demand order: each planned unit's key, its
   workload and the needs it attaches. Built before it is published, so
   every domain may read it. *)
let plan_ref :
    ((string * Workload.input * slot) * (Workload.t * any list)) list option
    Atomic.t =
  Atomic.make None

let rec full_profile w input =
  match (shards (), store ()) with
  | 1, None -> get full w input
  | 1, Some _ ->
    Memo_cache.find_or_compute stored_full_cache (w.wname, input) (fun () ->
        stored_profile w input ~shards:1 (fun () -> get full w input))
  | k, _ -> sharded_profile w input ~shards:k

(* One program build and one machine execution with every member
   attached; observers are detached once collected, so the kept values
   (and a kept machine) hold no live profiling state. A stage-B member
   reads the full profile as it attaches. *)
and execute (w : Workload.t) input needs =
  let members = List.fold_left (add_need w) [] needs in
  let profile = lazy (full_profile w input) in
  let machine = Machine.create (w.wbuild input) in
  let collectors, attachment =
    Machine.with_attachment machine (fun () ->
        List.map (attach_member profile machine) members)
  in
  ignore (Machine.run machine);
  let kept = List.concat_map (fun collect -> collect ()) collectors in
  Machine.detach machine attachment;
  kept

(* While another domain executes the planned unit a reader needs (at
   -j N), the reader executes a planned unit of the same stage that
   nobody has started, rather than wait. A failure there is left to that
   unit's own readers: the unit is not cached, and they execute it again. *)
and help ((_, _, slot) as key) =
  match Atomic.get plan_ref with
  | Some plan when Memo_cache.running cache key -> (
    let start ((_, input, slot') as k, (w, needs)) =
      slot' = slot
      && Memo_cache.try_compute cache k (fun () -> execute w input needs)
    in
    match List.exists start plan with
    | true -> help key
    | false | (exception _) -> ())
  | Some _ | None -> ()

and get : type a. a need -> Workload.t -> Workload.input -> a =
 fun n w input ->
  let key = (w.wname, input, Stage (stage_of n)) in
  let planned =
    match Atomic.get plan_ref with
    | Some plan -> Option.map snd (List.assoc_opt key plan)
    | None -> None
  in
  let members =
    match (planned, stage_of n) with
    | Some needs, _ -> needs
    | None, A -> base
    | None, B -> []
  in
  let unit_of key needs =
    Memo_cache.find_or_compute cache key (fun () -> execute w input needs)
  in
  let planned_value =
    if has n members then begin
      help key;
      find n.id (unit_of key members)
    end
    else None
  in
  match planned_value with
  | Some v -> v
  | None -> (
    (* not planned, or the cached unit predates the plan *)
    match find n.id (unit_of (w.wname, input, Solo (uid n)) [ Any n ]) with
    | Some v -> v
    | None -> assert false)

(* ---- plans ------------------------------------------------------------ *)

type demand = {
  d_only : string list option;
  d_input : Workload.input;
  d_need : any;
}

let demand ?only input n = { d_only = only; d_input = input; d_need = Any n }

let with_plan demands f =
  let wanted { d_only; d_input; d_need = Any n as need } =
    (* a sharded full profile never runs on a unit *)
    if uid n = uid full && shards () > 1 then []
    else
      List.filter_map
        (fun (w : Workload.t) ->
          if Option.fold ~none:true ~some:(List.mem w.wname) d_only then
            Some ((w.wname, d_input, Stage (stage_of n)), w, need)
          else None)
        workloads
  in
  (* each unit's needs, without repeats, in demand order *)
  let add plan (key, w, (Any n as need)) =
    match List.assoc_opt key plan with
    | None -> plan @ [ (key, (w, [ need ])) ]
    | Some (_, needs) when has n needs -> plan
    | Some (_, needs) ->
      List.map
        (fun ((k, _) as u) -> if k = key then (k, (w, needs @ [ need ])) else u)
        plan
  in
  let plan = List.fold_left add [] (List.concat_map wanted demands) in
  let previous = Atomic.exchange plan_ref (Some plan) in
  Fun.protect ~finally:(fun () -> Atomic.set plan_ref previous) f

(* ---- accessors -------------------------------------------------------- *)

let plain_run w input = get plain w input

let proc_profile w input = get procs w input

let machine_runs () = Memo_cache.computations cache

let clear_cache () =
  Memo_cache.clear cache;
  Memo_cache.clear sharded_cache;
  Memo_cache.clear stored_full_cache

let load_points p = Profile.points_by_category p Isa.Load

let value_points p = Array.to_list p.Profile.points
