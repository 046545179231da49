(* The three workloads: their set-up and the ops they time. Every op is
   checked against a golden digest; the same functions serve the
   untraced measurement and the traced run (spans are no-ops while
   tracing is off). *)

open Common

let span = Spans.with_span

(* One pass: its time, the latency of each op in it, and the minor
   words those ops allocated. Times are host-calibrated (see
   Common.calibrated). *)
type pass = { pass_s : float; op_s : float list; words : float }

(* What one run measured: its passes, newest first, the host slowdown
   each op was scaled by, and how many ops were attempted and failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable passes : pass list;
  mutable slowdowns : float list;
  mutable op_s : float list;  (** the pass in progress *)
  mutable words : float;
}

let new_tally () =
  { attempted = 0; failed = 0; passes = []; slowdowns = []; op_s = [];
    words = 0. }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* Times [f] as one op of the pass in progress; returns its result and
   its calibrated latency. *)
let timed_op t f =
  let r, dt, slowdown =
    calibrated ~around:(span ~cat:"calibration" "calibration.kernel") (fun () ->
        let w0 = Gc.minor_words () in
        let r = f () in
        t.words <- t.words +. (Gc.minor_words () -. w0);
        r)
  in
  t.op_s <- dt :: t.op_s;
  t.slowdowns <- slowdown :: t.slowdowns;
  (r, dt)

(* Runs one pass; a pass's time is the sum of its ops' latencies. *)
let record_pass t f =
  t.op_s <- [];
  t.words <- 0.;
  f ();
  if t.op_s <> [] then
    t.passes <-
      { pass_s = List.fold_left ( +. ) 0. t.op_s; op_s = t.op_s; words = t.words }
      :: t.passes

(* Seeded Fisher-Yates permutation, fresh for every pass. *)
let permute ~seed ~pass arr =
  let a = Array.copy arr in
  let st = Random.State.make [| seed; pass |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ---- profile_grid ------------------------------------------------------ *)

(* Profile.run, split into its public steps so each layer gets a span. *)
let traced_profile p =
  let m = span ~cat:"machine" "machine.create" (fun () -> Machine.create p.prog) in
  let live =
    span ~cat:"profile" "profile.attach" (fun () -> Profile.attach m `All)
  in
  ignore (span ~cat:"machine" "machine.run" (fun () -> Machine.run m));
  span ~cat:"profile" "profile.collect" (fun () -> Profile.collect live)

(* One op: a full value profile of one program, checked against its
   golden digest. Returns the op's latency. *)
let profile_op t ~golden p =
  match
    timed_op t (fun () ->
        span ~cat:"bench" ("op:" ^ label_of p) (fun () ->
            if !Spans.enabled then traced_profile p
            else Profile.run ~selection:`All p.prog))
  with
  | prof, dt ->
    let bytes =
      span ~cat:"profile_io" "profile_io.encode" (fun () ->
          Profile_io.to_binary prof)
    in
    check t (matches golden (profile_label p default_capacity) (digest bytes));
    dt
  | exception _ ->
    check t false;
    0.

(* One pass: each train program once, in a seeded order. *)
let profile_pass t ~golden ~seed ~pass train =
  Array.iteri
    (fun k p ->
      Spans.set_op ((Array.length train * pass) + k);
      ignore (profile_op t ~golden p))
    (permute ~seed ~pass train)

(* ---- experiment_suite -------------------------------------------------- *)

let suite_config = { Experiments.default_run_config with rc_jobs = Some 1 }

(* One cold pass of e01..e24 as `vprof experiments --all -j 1` runs it:
   empty harness memo, one supervised serial run. Each experiment body is
   one op. Returns the supervisor's report. *)
let experiment_pass t ~golden =
  let specs =
    List.map
      (fun (spec : Experiments.spec) ->
        { spec with
          run =
            (fun () ->
              fst
                (timed_op t (fun () ->
                     span ~cat:"supervisor" ("job:" ^ spec.id) spec.run))) })
      Experiments.all
  in
  span ~cat:"driver" "harness.clear_cache" Harness.clear_cache;
  let rep =
    span ~cat:"driver" "experiments.run_strings" (fun () ->
        Experiments.run_strings ~config:suite_config specs)
  in
  List.iter
    (fun (o : string Supervisor.outcome) ->
      check t
        (match o.o_result with
         | Ok payload -> matches golden (experiment_label o.o_name) (digest payload)
         | Error _ -> false))
    rep.Supervisor.outcomes;
  rep

(* ---- store_cycle ------------------------------------------------------- *)

type entry = {
  e_prog : program;
  e_key : string;
  e_label : string;
  e_profile : Profile.t;
}

(* A wrapper for each piece of a set-up's work (see Bench.timed_setup). *)
type piece = { run : 'a. (unit -> 'a) -> 'a }

let whole = { run = (fun f -> f ()) }

(* The 24 programs profiled under every capacity in [capacities]; each
   profile is computed under [piece]. *)
let store_entries ?(piece = whole) programs =
  List.concat_map
    (fun p ->
      List.map
        (fun cap ->
          { e_prog = p; e_key = store_key p cap; e_label = profile_label p cap;
            e_profile =
              piece.run (fun () ->
                  Profile.run ~config:(vconfig cap) ~selection:`All p.prog) })
        capacities)
    programs
  |> Array.of_list

let fill_store dir entries =
  rm_rf dir;
  let s = Store.open_dir ~reset:true dir in
  ignore (Store.new_generation s);
  Array.iter (fun e -> Store.put_profile s ~key:e.e_key e.e_profile) entries

type store_op = Get of int | Put of int

(* The seeded op sequence: blocks of four ops, three gets and one put in
   a random position, each on a uniformly chosen entry. *)
let op_stream ~seed n =
  let st = Random.State.make [| seed; 4 |] in
  let pending = Queue.create () in
  fun () ->
    if Queue.is_empty pending then begin
      let put_at = Random.State.int st 4 in
      for k = 0 to 3 do
        let i = Random.State.int st n in
        Queue.add (if k = put_at then Put i else Get i) pending
      done
    end;
    Queue.pop pending

let ops_per_store_pass = 64

(* One `--store` CLI invocation: open the directory store, then read a
   profile or write one under a new generation. *)
let store_op dir entries op =
  let s = span ~cat:"store" "store.open_dir" (fun () -> Store.open_dir dir) in
  match op with
  | Get i ->
    let e = entries.(i) in
    span ~cat:"store" "store.get_profile" (fun () ->
        Store.get_profile s ~program:e.e_prog.prog ~key:e.e_key)
  | Put i ->
    let e = entries.(i) in
    span ~cat:"store" "store.put" (fun () ->
        ignore (Store.new_generation s);
        Store.put_profile s ~key:e.e_key e.e_profile);
    None

let store_pass t ~golden ~next_op ~pass dir entries =
  for k = 0 to ops_per_store_pass - 1 do
    Spans.set_op ((ops_per_store_pass * pass) + k);
    let op = next_op () in
    match fst (timed_op t (fun () -> store_op dir entries op)) with
    | got ->
      check t
        (match (op, got) with
         | Get i, Some prof ->
           matches golden entries.(i).e_label
             (span ~cat:"profile_io" "profile_io.encode" (fun () ->
                  digest (Profile_io.to_binary prof)))
         | Get _, None -> false
         | Put _, _ -> true)
    | exception _ -> check t false
  done

(* The store must end clean; a non-clean survey counts as a failed op. *)
let verify_store t dir =
  check t
    (match
       span ~cat:"store" "store.verify" (fun () ->
           Store.verify (Store.open_dir dir))
     with
     | c -> Store.check_clean c
     | exception _ -> false)
