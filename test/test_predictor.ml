(* Predictor model tests: drive predictors directly with synthetic
   streams, then through the simulation harness, and check the
   cell-based implementation against a reference model. *)

(* The reference model: the straightforward implementation of every
   predictor, with a record per table slot, [Hashtbl]s for the per-pc
   state and [int64 option] predictions. {!Predictor} must agree with it
   prediction for prediction and eviction for eviction. *)
module Reference = struct
  type t = {
    pname : string;
    ppredict : pc:int -> int64 option;
    pupdate : pc:int -> int64 -> unit;
    pevictions : unit -> int;
  }

  let conf_max = 3

  type 'a table = {
    mask : int;
    tags : int array; (* -1 = empty *)
    slots : 'a array;
    mutable evicted : int;
  }

  let make_table bits empty =
    let n = 1 lsl bits in
    { mask = n - 1; tags = Array.make n (-1); slots = Array.make n empty;
      evicted = 0 }

  let lookup tbl ~pc =
    let i = pc land tbl.mask in
    if tbl.tags.(i) = pc then Some tbl.slots.(i) else None

  let claim tbl ~pc fresh =
    let i = pc land tbl.mask in
    if tbl.tags.(i) <> pc then begin
      if tbl.tags.(i) >= 0 then tbl.evicted <- tbl.evicted + 1;
      tbl.tags.(i) <- pc;
      tbl.slots.(i) <- fresh ()
    end;
    i

  type lvp_slot = { mutable lv : int64; mutable lconf : int }

  let lvp ?(bits = 10) ?(conf_threshold = 1) () =
    let tbl = make_table bits { lv = 0L; lconf = 0 } in
    { pname = Printf.sprintf "lvp-%d" (1 lsl bits);
      ppredict =
        (fun ~pc ->
          match lookup tbl ~pc with
          | Some s when s.lconf >= conf_threshold -> Some s.lv
          | Some _ | None -> None);
      pupdate =
        (fun ~pc v ->
          let i = claim tbl ~pc (fun () -> { lv = 0L; lconf = 0 }) in
          let s = tbl.slots.(i) in
          if Int64.equal s.lv v then s.lconf <- min conf_max (s.lconf + 1)
          else begin
            s.lv <- v;
            s.lconf <- 0
          end);
      pevictions = (fun () -> tbl.evicted) }

  type stride_slot = {
    mutable sv : int64;
    mutable sstride : int64;
    mutable sconf : int;
    mutable sinit : bool;
  }

  let stride ?(bits = 10) ?(conf_threshold = 1) () =
    let fresh () = { sv = 0L; sstride = 0L; sconf = 0; sinit = false } in
    let tbl = make_table bits (fresh ()) in
    { pname = Printf.sprintf "stride-%d" (1 lsl bits);
      ppredict =
        (fun ~pc ->
          match lookup tbl ~pc with
          | Some s when s.sinit && s.sconf >= conf_threshold ->
            Some (Int64.add s.sv s.sstride)
          | Some _ | None -> None);
      pupdate =
        (fun ~pc v ->
          let i = claim tbl ~pc fresh in
          let s = tbl.slots.(i) in
          if not s.sinit then begin
            s.sv <- v;
            s.sinit <- true
          end
          else begin
            let observed = Int64.sub v s.sv in
            if Int64.equal observed s.sstride then
              s.sconf <- min conf_max (s.sconf + 1)
            else begin
              s.sstride <- observed;
              s.sconf <- 0
            end;
            s.sv <- v
          end);
      pevictions = (fun () -> tbl.evicted) }

  let fcm ?(bits = 12) ?(history = 2) () =
    let l2n = 1 lsl bits in
    let l2 = Array.make l2n None in
    let hist : (int, int64 array) Hashtbl.t = Hashtbl.create 1024 in
    let evicted = ref 0 in
    let hash pc values =
      let h = ref (pc * 0x9E3779B1) in
      Array.iter
        (fun v ->
          h := (!h lxor Int64.to_int (Int64.mul v 0x100000001B3L)) * 0x01000193)
        values;
      !h land (l2n - 1)
    in
    let history_of pc =
      match Hashtbl.find_opt hist pc with
      | Some h -> h
      | None ->
        let h = Array.make history 0L in
        Hashtbl.replace hist pc h;
        h
    in
    { pname = Printf.sprintf "fcm-%d" l2n;
      ppredict =
        (fun ~pc ->
          match Hashtbl.find_opt hist pc with
          | None -> None
          | Some h -> l2.(hash pc h));
      pupdate =
        (fun ~pc v ->
          let h = history_of pc in
          let idx = hash pc h in
          (match l2.(idx) with
           | Some old when not (Int64.equal old v) -> incr evicted
           | Some _ | None -> ());
          l2.(idx) <- Some v;
          Array.blit h 1 h 0 (history - 1);
          h.(history - 1) <- v);
      pevictions = (fun () -> !evicted) }

  let hybrid a b =
    let chooser : (int, int ref) Hashtbl.t = Hashtbl.create 1024 in
    let counter pc =
      match Hashtbl.find_opt chooser pc with
      | Some r -> r
      | None ->
        let r = ref 2 in
        Hashtbl.replace chooser pc r;
        r
    in
    { pname = Printf.sprintf "hybrid(%s,%s)" a.pname b.pname;
      ppredict =
        (fun ~pc ->
          let pa = a.ppredict ~pc and pb = b.ppredict ~pc in
          if !(counter pc) >= 2 then (match pa with Some _ -> pa | None -> pb)
          else (match pb with Some _ -> pb | None -> pa));
      pupdate =
        (fun ~pc v ->
          let pa = a.ppredict ~pc and pb = b.ppredict ~pc in
          let hit p = match p with Some x -> Int64.equal x v | None -> false in
          let c = counter pc in
          (match (hit pa, hit pb) with
           | true, false -> c := min conf_max (!c + 1)
           | false, true -> c := max 0 (!c - 1)
           | true, true | false, false -> ());
          a.pupdate ~pc v;
          b.pupdate ~pc v);
      pevictions = (fun () -> a.pevictions () + b.pevictions ()) }

  let perfect_last () =
    let table : (int, int64) Hashtbl.t = Hashtbl.create 4096 in
    { pname = "perfect-last";
      ppredict = (fun ~pc -> Hashtbl.find_opt table pc);
      pupdate = (fun ~pc v -> Hashtbl.replace table pc v);
      pevictions = (fun () -> 0) }

  let filtered ~profile ~threshold p =
    let allowed = Hashtbl.create 256 in
    Array.iter
      (fun (pt : Profile.point) ->
        if pt.p_metrics.Metrics.inv_top >= threshold then
          Hashtbl.replace allowed pt.p_pc ())
      profile.Profile.points;
    { pname = Printf.sprintf "%s@inv>=%.0f%%" p.pname (100. *. threshold);
      ppredict =
        (fun ~pc -> if Hashtbl.mem allowed pc then p.ppredict ~pc else None);
      pupdate = (fun ~pc v -> if Hashtbl.mem allowed pc then p.pupdate ~pc v);
      pevictions = p.pevictions }

  let routed ?threshold ~profile ~last_value ~strided () =
    let route = Hashtbl.create 256 in
    Array.iter
      (fun (pt : Profile.point) ->
        match Metrics.predictor_class ?threshold pt.p_metrics with
        | Metrics.Last_value -> Hashtbl.replace route pt.p_pc last_value
        | Metrics.Strided -> Hashtbl.replace route pt.p_pc strided
        | Metrics.Unpredictable -> ())
      profile.Profile.points;
    { pname = Printf.sprintf "routed(%s,%s)" last_value.pname strided.pname;
      ppredict =
        (fun ~pc ->
          match Hashtbl.find_opt route pc with
          | Some p -> p.ppredict ~pc
          | None -> None);
      pupdate =
        (fun ~pc v ->
          match Hashtbl.find_opt route pc with
          | Some p -> p.pupdate ~pc v
          | None -> ());
      pevictions =
        (fun () -> last_value.pevictions () + strided.pevictions ()) }

  let simulate prog predictors =
    let machine = Machine.create prog in
    let preds = Array.of_list predictors in
    let n = Array.length preds in
    let events = ref 0 in
    let predicted = Array.make n 0 in
    let correct = Array.make n 0 in
    List.iter
      (fun pc ->
        Machine.add_hook machine pc (fun value _ ->
            incr events;
            for i = 0 to n - 1 do
              (match preds.(i).ppredict ~pc with
               | Some guess ->
                 predicted.(i) <- predicted.(i) + 1;
                 if Int64.equal guess value then correct.(i) <- correct.(i) + 1
               | None -> ());
              preds.(i).pupdate ~pc value
            done))
      (Atom.select prog `All);
    ignore (Machine.run machine);
    Array.to_list
      (Array.mapi
         (fun i p ->
           let ev = !events in
           { Predictor.pr_name = p.pname;
             pr_events = ev;
             pr_predicted = predicted.(i);
             pr_correct = correct.(i);
             pr_accuracy =
               (if predicted.(i) = 0 then 0.
                else float_of_int correct.(i) /. float_of_int predicted.(i));
             pr_coverage =
               (if ev = 0 then 0. else float_of_int predicted.(i) /. float_of_int ev);
             pr_correct_rate =
               (if ev = 0 then 0. else float_of_int correct.(i) /. float_of_int ev);
             pr_evictions = p.pevictions () })
         preds)
end

let drive p pc stream =
  let predicted = ref 0 and correct = ref 0 in
  List.iter
    (fun v ->
      (match Predictor.predict p ~pc with
       | Some guess ->
         incr predicted;
         if Int64.equal guess v then incr correct
       | None -> ());
      Predictor.update p ~pc v)
    stream;
  (!predicted, !correct)

let repeat n v = List.init n (fun _ -> v)

let test_lvp_constant_stream () =
  let p = Predictor.lvp () in
  let predicted, correct = drive p 5 (repeat 100 42L) in
  (* first update trains, second raises confidence; from exec 3 on it
     predicts and is always right *)
  Alcotest.(check bool) "predicts most" true (predicted >= 97);
  Alcotest.(check int) "all correct" predicted correct

let test_lvp_alternating_stream () =
  let p = Predictor.lvp () in
  let stream = List.init 100 (fun i -> if i mod 2 = 0 then 1L else 2L) in
  let _, correct = drive p 5 stream in
  Alcotest.(check int) "never correct" 0 correct

let test_stride_sequence () =
  let p = Predictor.stride () in
  let stream = List.init 100 (fun i -> Int64.of_int (10 + (3 * i))) in
  let predicted, correct = drive p 5 stream in
  Alcotest.(check bool) "predicts most" true (predicted >= 95);
  Alcotest.(check int) "stride always right" predicted correct

let test_stride_zero_is_last_value () =
  let p = Predictor.stride () in
  let predicted, correct = drive p 5 (repeat 50 7L) in
  Alcotest.(check bool) "constant predicted" true (predicted >= 45);
  Alcotest.(check int) "correct" predicted correct

let test_fcm_periodic_pattern () =
  let p = Predictor.fcm ~history:2 () in
  (* period-3 pattern: a 2-value context uniquely determines the next *)
  let stream = List.init 120 (fun i -> Int64.of_int [| 1; 5; 9 |].(i mod 3)) in
  let predicted, correct = drive p 5 stream in
  Alcotest.(check bool) "warms up and predicts" true (predicted >= 100);
  Alcotest.(check bool) "almost all correct" true
    (correct >= predicted - 6)

let test_hybrid_picks_better_component () =
  (* A strided stream defeats LVP but not stride: the hybrid must end up
     near the stride predictor's accuracy. *)
  let hybrid = Predictor.hybrid (Predictor.lvp ()) (Predictor.stride ()) in
  let stream = List.init 200 (fun i -> Int64.of_int (4 * i)) in
  let predicted, correct = drive hybrid 5 stream in
  Alcotest.(check bool) "mostly correct" true
    (predicted > 150 && correct > predicted - 20)

let test_perfect_last_no_aliasing () =
  let p = Predictor.perfect_last () in
  (* interleave two pcs that would alias in a tiny table *)
  let ok = ref true in
  for i = 1 to 100 do
    ignore i;
    List.iter
      (fun (pc, v) ->
        (match Predictor.predict p ~pc with
         | Some guess -> if not (Int64.equal guess v) then ok := false
         | None -> ());
        Predictor.update p ~pc v)
      [ (0, 11L); (1024, 22L) ]
  done;
  Alcotest.(check bool) "no interference" true !ok;
  Alcotest.(check int) "no evictions" 0 (Predictor.evictions p)

let test_small_table_aliasing_evicts () =
  let p = Predictor.lvp ~bits:1 () in
  for _ = 1 to 10 do
    Predictor.update p ~pc:0 1L;
    Predictor.update p ~pc:2 2L (* same slot as pc 0 in a 2-entry table *)
  done;
  Alcotest.(check bool) "evictions counted" true (Predictor.evictions p > 10)

let test_filtered_gates_pcs () =
  (* fabricate a profile where only pc 0 is invariant *)
  let point pc inv =
    { Profile.p_pc = pc; p_instr = Isa.Nop; p_proc = "";
      p_metrics = { Metrics.empty with Metrics.total = 100; inv_top = inv } }
  in
  let profile =
    { Profile.points = [| point 0 0.9; point 1 0.1 |]; instrumented = 2;
      profiled_events = 200; dynamic_instructions = 1000;
      stats = Counters.create () }
  in
  let p = Predictor.filtered ~profile ~threshold:0.5 (Predictor.lvp ()) in
  for _ = 1 to 10 do
    Predictor.update p ~pc:0 1L;
    Predictor.update p ~pc:1 2L
  done;
  Alcotest.(check bool) "allowed pc predicts" true
    (Predictor.predict p ~pc:0 <> None);
  Alcotest.(check (option int64)) "filtered pc silent" None
    (Predictor.predict p ~pc:1)

let test_routed_dispatches_by_class () =
  (* pc 0: constant stream (last-value class); pc 1: strided; pc 2:
     unpredictable. Routing must send each to the right component and
     silence the third entirely. *)
  let point pc m = { Profile.p_pc = pc; p_instr = Isa.Nop; p_proc = ""; p_metrics = m } in
  let lv_metrics =
    { Metrics.empty with Metrics.total = 100; inv_top = 0.95; lvp = 0.95 }
  in
  let strided_metrics =
    { Metrics.empty with
      Metrics.total = 100; inv_top = 0.01; stride_top = 0.9;
      top_stride = Some 4L }
  in
  let wild_metrics = { Metrics.empty with Metrics.total = 100; inv_top = 0.01 } in
  let profile =
    { Profile.points =
        [| point 0 lv_metrics; point 1 strided_metrics; point 2 wild_metrics |];
      instrumented = 3; profiled_events = 300; dynamic_instructions = 1000;
      stats = Counters.create () }
  in
  let routed =
    Predictor.routed ~profile
      ~last_value:(Predictor.lvp ())
      ~strided:(Predictor.stride ())
      ()
  in
  (* constant stream at pc 0 *)
  let p0, c0 = drive routed 0 (repeat 50 7L) in
  Alcotest.(check bool) "pc0 predicted via lvp" true (p0 > 40 && c0 = p0);
  (* strided stream at pc 1 *)
  let stream = List.init 50 (fun i -> Int64.of_int (4 * i)) in
  let p1, c1 = drive routed 1 stream in
  Alcotest.(check bool) "pc1 predicted via stride" true (p1 > 40 && c1 > p1 - 5);
  (* unpredictable pc 2 never predicts *)
  let p2, _ = drive routed 2 (repeat 50 7L) in
  Alcotest.(check int) "pc2 silenced" 0 p2

let test_simulate_counts () =
  let w = Workloads.find "li" in
  let prog = w.Workload.wbuild Workload.Test in
  let results =
    Predictor.simulate prog [ Predictor.perfect_last (); Predictor.lvp () ]
  in
  (match results with
   | [ perfect; lvp ] ->
     Alcotest.(check bool) "events seen" true (perfect.Predictor.pr_events > 0);
     Alcotest.(check int) "same event stream" perfect.Predictor.pr_events
       lvp.Predictor.pr_events;
     Alcotest.(check bool) "perfect-last correct-rate >= lvp's" true
       (perfect.Predictor.pr_correct_rate >= lvp.Predictor.pr_correct_rate -. 1e-9);
     Alcotest.(check bool) "rates consistent" true
       (lvp.Predictor.pr_correct <= lvp.Predictor.pr_predicted
        && lvp.Predictor.pr_predicted <= lvp.Predictor.pr_events)
   | _ -> Alcotest.fail "expected two results")

let test_simulate_accuracy_definition () =
  let w = Workloads.find "swim" in
  let prog = w.Workload.wbuild Workload.Test in
  (match Predictor.simulate prog [ Predictor.lvp () ] with
   | [ r ] ->
     let expect =
       if r.Predictor.pr_predicted = 0 then 0.
       else
         float_of_int r.Predictor.pr_correct
         /. float_of_int r.Predictor.pr_predicted
     in
     Alcotest.(check (float 1e-9)) "accuracy" expect r.Predictor.pr_accuracy
   | _ -> Alcotest.fail "expected one result")

(* ---- Equivalence with the reference model ----------------------------- *)

(* A predictor built the same way from both implementations. *)
type spec =
  | Lvp of int
  | Stride of int
  | Fcm of int * int
  | Hybrid of spec * spec
  | Self_hybrid of spec  (** one predictor as both components *)
  | Perfect
  | Filtered of spec
  | Routed of spec * spec

(* Points for pcs 0..23 (the streams also use pcs past the profile): half
   the pcs pass the filter, and the routes cycle through last-value,
   strided and unpredictable. *)
let equiv_profile =
  let metrics pc =
    let inv_top = if pc mod 2 = 0 then 0.9 else 0.1 in
    match pc mod 3 with
    | 0 -> { Metrics.empty with Metrics.total = 100; inv_top; lvp = 0.9 }
    | 1 ->
      { Metrics.empty with
        Metrics.total = 100; inv_top = 0.01; stride_top = 0.9;
        top_stride = Some 4L }
    | _ -> { Metrics.empty with Metrics.total = 100; inv_top = 0.01 }
  in
  { Profile.points =
      Array.init 24 (fun pc ->
          { Profile.p_pc = pc; p_instr = Isa.Nop; p_proc = "";
            p_metrics = metrics pc });
    instrumented = 24; profiled_events = 2400; dynamic_instructions = 10_000;
    stats = Counters.create () }

let rec build_ref profile = function
  | Lvp bits -> Reference.lvp ~bits ()
  | Stride bits -> Reference.stride ~bits ()
  | Fcm (bits, history) -> Reference.fcm ~bits ~history ()
  | Hybrid (a, b) ->
    Reference.hybrid (build_ref profile a) (build_ref profile b)
  | Self_hybrid a ->
    let p = build_ref profile a in
    Reference.hybrid p p
  | Perfect -> Reference.perfect_last ()
  | Filtered a ->
    Reference.filtered ~profile ~threshold:0.5 (build_ref profile a)
  | Routed (a, b) ->
    Reference.routed ~profile ~last_value:(build_ref profile a)
      ~strided:(build_ref profile b) ()

let rec build profile = function
  | Lvp bits -> Predictor.lvp ~bits ()
  | Stride bits -> Predictor.stride ~bits ()
  | Fcm (bits, history) -> Predictor.fcm ~bits ~history ()
  | Hybrid (a, b) -> Predictor.hybrid (build profile a) (build profile b)
  | Self_hybrid a ->
    let p = build profile a in
    Predictor.hybrid p p
  | Perfect -> Predictor.perfect_last ()
  | Filtered a -> Predictor.filtered ~profile ~threshold:0.5 (build profile a)
  | Routed (a, b) ->
    Predictor.routed ~profile ~last_value:(build profile a)
      ~strided:(build profile b) ()

(* Every constructor, with tables small enough (2 to 8 entries) that the
   stream's pcs alias and evict. *)
let specs =
  [ Lvp 1; Lvp 3; Stride 1; Stride 3; Fcm (2, 1); Fcm (3, 2); Fcm (4, 3);
    Hybrid (Lvp 2, Stride 2); Hybrid (Fcm (3, 2), Lvp 1);
    Hybrid (Hybrid (Lvp 1, Stride 2), Fcm (2, 2)); Self_hybrid (Stride 2);
    Perfect; Filtered (Lvp 2); Filtered (Hybrid (Lvp 1, Stride 1));
    Routed (Lvp 2, Stride 2); Routed (Lvp 1, Lvp 1) ]

(* A stream event: a pc, and either a step added to that pc's previous
   value (repeats and strides, which the predictors learn) or a fresh
   value. *)
let gen_stream =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (pair (int_range 0 40)
         (frequency
            [ (3, map (fun d -> `Step (Int64.of_int d)) (oneofl [ 0; 4 ]));
              (1, map (fun d -> `Step (Int64.of_int d)) (int_range (-3) 3));
              (1, map (fun v -> `Fresh v) (map Int64.of_int int)) ])))

let agrees spec stream =
  let r = build_ref equiv_profile spec and p = build equiv_profile spec in
  let last = Array.make 41 0L in
  List.for_all
    (fun (pc, ev) ->
      let v = match ev with `Step d -> Int64.add last.(pc) d | `Fresh v -> v in
      last.(pc) <- v;
      let same_guess = r.Reference.ppredict ~pc = Predictor.predict p ~pc in
      r.Reference.pupdate ~pc v;
      Predictor.update p ~pc v;
      same_guess
      && r.Reference.pevictions () = Predictor.evictions p
      || QCheck.Test.fail_reportf "%s diverges at pc %d, value %Ld"
           (Predictor.name p) pc v)
    stream

let qcheck_matches_reference =
  QCheck.Test.make ~name:"every model matches the reference, step by step"
    ~count:200 (QCheck.make gen_stream) (fun stream ->
      List.for_all (fun spec -> agrees spec stream) specs)

(* [simulate] drives the models through their fused predict-then-train
   step; it must report what the reference's predict and update report.
   Real programs have hundreds of pcs, so the tiny tables above mostly
   thrash there: the E11/E15 sizes are added so confidence builds up. *)
let test_simulate_matches_reference () =
  let specs =
    specs
    @ [ Lvp 10; Stride 10; Fcm (12, 2); Hybrid (Lvp 10, Stride 10);
        Hybrid (Fcm (12, 2), Stride 10);
        Filtered (Lvp 6); Routed (Lvp 8, Stride 8) ]
  in
  List.iter
    (fun name ->
      let prog = (Workloads.find name).Workload.wbuild Workload.Test in
      let profile = Profile.run prog in
      let expected =
        Reference.simulate prog (List.map (build_ref profile) specs)
      in
      let got = Predictor.simulate prog (List.map (build profile) specs) in
      List.iter2
        (fun (e : Predictor.result) (g : Predictor.result) ->
          Alcotest.(check string) "name" e.pr_name g.pr_name;
          Alcotest.(check (list int))
            (Printf.sprintf "%s %s: events, predicted, correct, evictions" name
               e.pr_name)
            [ e.pr_events; e.pr_predicted; e.pr_correct; e.pr_evictions ]
            [ g.pr_events; g.pr_predicted; g.pr_correct; g.pr_evictions ])
        expected got)
    [ "li"; "compress"; "m88ksim" ]

(* [attach] beside other members — the full value profiler, the memory
   profiler and a second predictor set, on one machine — yields exactly
   the results of a solo [simulate]: the experiment units rely on it. *)
let test_attached_beside_others_matches_solo () =
  let specs = [ Lvp 10; Stride 10; Fcm (12, 2); Hybrid (Lvp 10, Stride 10);
                Filtered (Lvp 6); Routed (Lvp 8, Stride 8) ] in
  List.iter
    (fun name ->
      let prog = (Workloads.find name).Workload.wbuild Workload.Test in
      let profile = Profile.run prog in
      let solo = Predictor.simulate prog (List.map (build profile) specs) in
      let machine = Machine.create prog in
      let full = Profile.attach machine `All in
      let live = Predictor.attach machine (List.map (build profile) specs) in
      let memory = Memprof.attach machine in
      let other = Predictor.attach machine [ Predictor.perfect_last () ] in
      ignore (Machine.run machine);
      ignore (Profile.collect full, Memprof.collect memory, Predictor.collect other);
      Alcotest.(check bool) (name ^ ": fused identical to solo") true
        (Predictor.collect live = solo))
    [ "li"; "m88ksim" ]

let test_negative_pc_rejected () =
  List.iter
    (fun spec ->
      let p = build equiv_profile spec in
      let rejects what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s accepted pc -1" (Predictor.name p) what
        | exception Invalid_argument _ -> ()
      in
      rejects "predict" (fun () -> ignore (Predictor.predict p ~pc:(-1)));
      rejects "update" (fun () -> Predictor.update p ~pc:(-1) 5L);
      Alcotest.(check int) "no evictions" 0 (Predictor.evictions p))
    specs

let suite =
  [ Alcotest.test_case "lvp constant" `Quick test_lvp_constant_stream;
    Alcotest.test_case "lvp alternating" `Quick test_lvp_alternating_stream;
    Alcotest.test_case "stride sequence" `Quick test_stride_sequence;
    Alcotest.test_case "stride zero = last value" `Quick
      test_stride_zero_is_last_value;
    Alcotest.test_case "fcm periodic" `Quick test_fcm_periodic_pattern;
    Alcotest.test_case "hybrid chooser" `Quick test_hybrid_picks_better_component;
    Alcotest.test_case "perfect last" `Quick test_perfect_last_no_aliasing;
    Alcotest.test_case "aliasing evictions" `Quick test_small_table_aliasing_evicts;
    Alcotest.test_case "filtered gating" `Quick test_filtered_gates_pcs;
    Alcotest.test_case "routed dispatch" `Quick test_routed_dispatches_by_class;
    Alcotest.test_case "simulate counts" `Quick test_simulate_counts;
    Alcotest.test_case "simulate accuracy" `Quick test_simulate_accuracy_definition;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "simulate matches reference" `Quick
      test_simulate_matches_reference;
    Alcotest.test_case "attached beside others = solo" `Quick
      test_attached_beside_others_matches_solo;
    Alcotest.test_case "negative pc rejected" `Quick test_negative_pc_rejected ]
