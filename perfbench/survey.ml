(* The traced run: one traced pass of each workload plus isolation
   fixtures for the per-event layers, reduced to per-layer metrics.
   Spans come only from the benchmark's own calls into each layer. *)

open Common

let span = Spans.with_span

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let ms s = s *. 1000.

let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Durations (s) of every recorded span with this name. *)
let durations name =
  List.filter_map
    (fun (s : Spans.span) -> if s.name = name then Some (s.t1 -. s.t0) else None)
    (Spans.spans ())

let reps = 3

(* Median over [reps] repetitions of [f], which returns (seconds, units,
   minor words) for one repetition: (ns per unit, units, words per unit). *)
let per_unit f =
  let runs = List.init reps (fun _ -> f ()) in
  let ns = median (List.map (fun (s, n, _) -> s *. 1e9 /. float n) runs) in
  let _, n, w = List.hd runs in
  (ns, n, w /. float n)

(* [f]'s result, host-calibrated time (see Common.calibrated) and the
   minor words it allocated. *)
let timed f =
  let words = ref 0. in
  let r, dt, _ =
    calibrated ~around:(span ~cat:"calibration" "calibration.kernel") (fun () ->
        let w0 = Gc.minor_words () in
        let r = f () in
        words := Gc.minor_words () -. w0;
        r)
  in
  (r, dt, !words)

(* Median time (s) of [f] over [reps] repetitions. *)
let median_s f =
  median
    (List.init reps (fun _ ->
         let _, dt, _ = timed f in
         dt))

(* ---- Machine and hook dispatch ---------------------------------------- *)

let noop : Machine.hook = fun _ _ -> ()

let machine_run ~hook train () =
  List.fold_left
    (fun (s, n, w) p ->
      let m = Machine.create p.prog in
      if hook then
        ignore (Atom.instrument m (Atom.select p.prog `All) (fun _ -> noop));
      let steps, dt, dw = timed (fun () -> Machine.run m) in
      (s +. dt, n + steps, w +. dw))
    (0., 0, 0.) train

(* ---- Recorded value streams ------------------------------------------- *)

(* Events recorded per program: enough for stable per-event timings while
   keeping the fixture's memory small. *)
let stream_cap = 131_072

type stream = {
  pcs : int array;  (** real pc of each event *)
  slots : int array;  (** dense index of that pc *)
  values : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  points : int;
}

(* Records the first [stream_cap] value events of a program, in machine
   order, through public Atom hooks. *)
let record p =
  let selected = Array.of_list (Atom.select p.prog `All) in
  let pcs = Array.make stream_cap 0 and slots = Array.make stream_cap 0 in
  let values = Bigarray.(Array1.create int64 c_layout stream_cap) in
  let n = ref 0 in
  let m = Machine.create p.prog in
  let slot_of = Hashtbl.create 256 in
  Array.iteri (fun i pc -> Hashtbl.replace slot_of pc i) selected;
  ignore
    (Atom.instrument m (Array.to_list selected) (fun pc ->
         let slot = Hashtbl.find slot_of pc in
         fun v _ ->
           if !n < stream_cap then begin
             pcs.(!n) <- pc;
             slots.(!n) <- slot;
             Bigarray.Array1.unsafe_set values !n v;
             incr n
           end));
  ignore (Machine.run m);
  { pcs = Array.sub pcs 0 !n; slots = Array.sub slots 0 !n;
    values = Bigarray.Array1.sub values 0 !n; points = Array.length selected }

(* Replays every stream into fresh per-point state built by [make],
   feeding each event to [feed]. *)
let replay streams make feed () =
  List.fold_left
    (fun (s, n, w) st ->
      let states = Array.init st.points (fun _ -> make ()) in
      let events = Array.length st.slots in
      let (), dt, dw =
        timed (fun () ->
            for i = 0 to events - 1 do
              feed states.(st.slots.(i)) st.pcs.(i)
                (Bigarray.Array1.unsafe_get st.values i)
            done)
      in
      (s +. dt, n + events, w +. dw))
    (0., 0, 0.) streams

(* The predictor pair the prediction experiment runs as its hybrid, fed
   one predict + update per event as Predictor.simulate does. *)
let predictor_replay streams () =
  List.fold_left
    (fun (s, n, w) st ->
      let p = Predictor.hybrid (Predictor.lvp ~bits:10 ()) (Predictor.stride ~bits:10 ()) in
      let events = Array.length st.pcs in
      let (), dt, dw =
        timed (fun () ->
            for i = 0 to events - 1 do
              let pc = st.pcs.(i) in
              ignore (Predictor.predict p ~pc);
              Predictor.update p ~pc (Bigarray.Array1.unsafe_get st.values i)
            done)
      in
      (s +. dt, n + events, w +. dw))
    (0., 0, 0.) streams

(* ---- The survey -------------------------------------------------------- *)

let cats =
  [ "bench"; "workloads"; "machine"; "atom"; "vstate"; "tnv"; "predict";
    "sampler"; "profile"; "profile_io"; "crc32"; "store"; "driver";
    "supervisor"; "calibration" ]

(* Runs the traced survey and returns (name, value, unit) triples, in
   the order BENCHMARK.json lists them. [golden] checks every op. *)
let run ~seed ~golden ~store_dir t =
  Spans.enabled := true;
  let build_s =
    median_s (fun () -> span ~cat:"workloads" "workloads.build" build_programs)
  in
  let programs = build_programs () in
  let train = Array.of_list (Common.train programs) in
  let train_l = Array.to_list train in

  (* profile_grid: each program is profiled traced and untraced back to
     back, in alternating order, so both sides see the same host speed;
     the traced side's spans give the profile-layer metrics *)
  let on = ref 0. and off = ref 0. in
  for pass = 0 to reps - 1 do
    Array.iteri
      (fun k p ->
        Spans.set_op ((Array.length train * pass) + k);
        let side traced =
          Spans.enabled := traced;
          let dt = Passes.profile_op t ~golden p in
          Spans.enabled := true;
          dt
        in
        let traced_first = (pass + k) mod 2 = 0 in
        let a = side traced_first in
        let b = side (not traced_first) in
        let traced, untraced = if traced_first then (a, b) else (b, a) in
        on := !on +. traced;
        off := !off +. untraced)
      (Passes.permute ~seed ~pass train)
  done;
  let overhead = (!on /. !off) -. 1. in

  (* experiment_suite: one traced cold pass; registry counters are read
     over exactly this pass *)
  Obs.Metrics.reset ();
  let rep = Passes.experiment_pass t ~golden in
  let suite =
    [ ("tnv.clears", float (counter "tnv.clears"), "count");
      ("tnv.evictions", float (counter "tnv.evictions"), "count") ]
  in
  let experiments =
    List.map
      (fun (spec : Experiments.spec) ->
        ("experiment." ^ spec.id ^ "_ms", ms (mean (durations ("job:" ^ spec.id))), "ms"))
      Experiments.all
  in
  let attempts =
    List.fold_left
      (fun acc (o : string Supervisor.outcome) -> acc + o.o_attempts)
      0 rep.Supervisor.outcomes
  in
  let driver =
    [ ("harness.machine_runs", float (Harness.machine_runs ()), "count");
      ("supervisor.attempts", float attempts, "count");
      ("supervisor.failures", float (counter "supervisor.failures"), "count");
      ("pool.jobs", float (counter "pool.jobs"), "count") ]
  in

  (* store_cycle: set-up, then one traced pass of the seeded op mix *)
  let entries =
    span ~cat:"profile" "store.profiles" (fun () -> Passes.store_entries programs)
  in
  span ~cat:"store" "store.fill" (fun () -> Passes.fill_store store_dir entries);
  Obs.Metrics.reset ();
  let next_op = Passes.op_stream ~seed (Array.length entries) in
  Passes.store_pass t ~golden ~next_op ~pass:0 store_dir entries;
  Passes.verify_store t store_dir;
  let store =
    [ ("store.open_ms", ms (median (durations "store.open_dir")), "ms");
      ("store.get_ms", ms (median (durations "store.get_profile")), "ms");
      ("store.put_ms", ms (median (durations "store.put")), "ms");
      ( "store.entries",
        float (Store.stats (Store.open_dir store_dir)).Store.st_entries,
        "count" );
      ("store.bytes_written", float (counter "store.bytes_written"), "bytes");
      ("journal.appends", float (counter "journal.appends"), "count") ]
  in

  (* isolation fixtures *)
  let bare_ns, steps, bare_w =
    span ~cat:"machine" "fixture.machine_bare" (fun () ->
        per_unit (machine_run ~hook:false train_l))
  in
  let hook_ns, _, hook_w =
    span ~cat:"atom" "fixture.atom_noop_hooks" (fun () ->
        per_unit (machine_run ~hook:true train_l))
  in
  let streams = span ~cat:"atom" "fixture.record" (fun () -> List.map record train_l) in
  let vstate_ns, events, vstate_w =
    span ~cat:"vstate" "fixture.vstate_replay" (fun () ->
        per_unit
          (replay streams (fun () -> Vstate.create ()) (fun vs _ v ->
               Vstate.observe vs v)))
  in
  let tnv_ns, _, _ =
    span ~cat:"tnv" "fixture.tnv_replay" (fun () ->
        per_unit
          (replay streams
             (fun () -> Tnv.create ~capacity:default_capacity ())
             (fun tnv _ v -> Tnv.add tnv v)))
  in
  let predict_ns, _, _ =
    span ~cat:"predict" "fixture.predict_replay" (fun () ->
        per_unit (predictor_replay streams))
  in
  let sampler_ns, sampled =
    span ~cat:"sampler" "fixture.sampler" (fun () ->
        let runs =
          List.init reps (fun _ ->
              List.fold_left
                (fun (s, dyn, seen, profiled) p ->
                  let r, dt, _ = timed (fun () -> Sampler.run p.prog) in
                  ( s +. dt,
                    dyn + r.Sampler.dynamic_instructions,
                    seen + r.Sampler.total_events,
                    profiled + r.Sampler.profiled_events ))
                (0., 0, 0, 0) train_l)
        in
        let _, _, seen, profiled = List.hd runs in
        ( median (List.map (fun (s, dyn, _, _) -> s *. 1e9 /. float dyn) runs),
          float profiled /. float seen ))
  in
  let profiles = List.map (fun p -> (p, Profile.run ~selection:`All p.prog)) train_l in
  let encoded = List.map (fun (p, prof) -> (p, Profile_io.to_binary prof)) profiles in
  let encode_s =
    span ~cat:"profile_io" "fixture.encode" (fun () ->
        median_s (fun () ->
            List.iter (fun (_, prof) -> ignore (Profile_io.to_binary prof)) profiles))
  in
  let decode_s =
    span ~cat:"profile_io" "fixture.decode" (fun () ->
        median_s (fun () ->
            List.iter
              (fun (p, b) -> ignore (Profile_io.of_string ~program:p.prog b))
              encoded))
  in
  let all_bytes = String.concat "" (List.map snd encoded) in
  let rounds = 1 + (8_000_000 / String.length all_bytes) in
  let crc_s =
    span ~cat:"crc32" "fixture.crc32" (fun () ->
        median_s (fun () ->
            for _ = 1 to rounds do
              ignore (Crc32.string all_bytes)
            done))
  in
  Spans.enabled := false;
  let n = float (List.length train_l) in
  let self = Spans.self_time () in
  [ ("workloads.build_ms", ms build_s, "ms");
    ("machine.steps", float steps, "count");
    ("machine.ns_per_step", bare_ns, "ns");
    ("machine.minor_words_per_step", bare_w, "words");
    ("atom.dispatch_ns_per_step", hook_ns -. bare_ns, "ns");
    ("atom.minor_words_per_step", hook_w, "words");
    ("vstate.events", float events, "count");
    ("vstate.ns_per_event", vstate_ns, "ns");
    ("vstate.minor_words_per_event", vstate_w, "words");
    ("tnv.ns_per_add", tnv_ns, "ns") ]
  @ suite
  @ [ ("profile.attach_ms", ms (mean (durations "profile.attach")), "ms");
      ("profile.collect_ms", ms (mean (durations "profile.collect")), "ms");
      ("sampler.ns_per_step", sampler_ns, "ns");
      ("sampler.profiled_frac", sampled, "ratio");
      ("predict.ns_per_update", predict_ns, "ns") ]
  @ experiments @ driver @ store
  @ [ ("profile_io.encode_ms", ms encode_s /. n, "ms");
      ("profile_io.decode_ms", ms decode_s /. n, "ms");
      ("profile_io.bytes", float (String.length all_bytes) /. n, "bytes");
      ( "crc32.ns_per_byte",
        crc_s *. 1e9 /. float (rounds * String.length all_bytes),
        "ns" );
      ("trace.overhead_frac", overhead, "ratio") ]
  @ List.map (fun c -> ("self_ms." ^ c, ms (self c), "ms")) cats
