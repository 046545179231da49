(* The allocation gate: minor words allocated on the per-event path,
   counted with [Gc.minor_words], so the figures are deterministic.
   Stepping the common instructions allocates nothing, with or without
   an observer, and neither does a TNV miss that evicts or a CRC-32 over
   a store payload; whole runs of the 12 programs stay under a per-step
   ceiling (the remainder is [Jsr] call frames, and growth of the
   distinct sets and per-pc predictor tables), and arming a resource
   budget that never fires adds next to nothing to them. *)

open Isa

let reps = 1000

(* [setup] runs first, then [instr pc] is repeated [reps] times at
   consecutive pcs, then [Halt]. *)
let program setup instr =
  let n = List.length setup in
  let code =
    Array.concat
      [ Array.of_list setup; Array.init reps (fun i -> instr (n + i)); [| Halt |] ]
  in
  ({ Asm.code; procs = [||]; data = []; entry = 0 }, n)

(* Minor words allocated by stepping through the repeated instruction. *)
let words_per_step ~observed (prog, n) =
  let m = Machine.create prog in
  let acc = ref 0 in
  if observed then
    for pc = 0 to Array.length prog.Asm.code - 1 do
      Machine.add_observer m pc (fun () ->
          acc :=
            !acc lxor Int64.to_int (Machine.value m)
            lxor Int64.to_int (Machine.addr m))
    done;
  for _ = 1 to n do
    Machine.step m
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    Machine.step m
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  (w1 -. w0) /. float reps

let base = 0x1000L

(* t1 = a word address in a page that [setup] has already written *)
let mem_setup = [ Ldi (t0, 0x1234_5678_9ABC_DEFL); Ldi (t1, base); St (t0, t1, 0) ]

let cases =
  [ ("op reg", program [ Ldi (t0, 7L); Ldi (t1, 5L) ] (fun _ -> Op (Add, t0, Reg t1, t2)));
    ("op imm", program [ Ldi (t0, 7L) ] (fun _ -> Op (Mul, t0, Imm 3L, t2)));
    ("ldi", program [] (fun _ -> Ldi (t0, 0x7FFF_FFFF_FFFFL)));
    ("ld", program mem_setup (fun _ -> Ld (t2, t1, 0)));
    ("st", program mem_setup (fun _ -> St (t0, t1, 0)));
    ("br taken", program [] (fun pc -> Br (Eq, zero_reg, pc + 1)));
    ("br not taken", program [] (fun pc -> Br (Ne, zero_reg, pc + 1)));
    ("jmp", program [] (fun pc -> Jmp (pc + 1)));
    ("nop", program [] (fun _ -> Nop)) ]

let step_case (name, prog) =
  Alcotest.test_case ("step " ^ name) `Quick (fun () ->
      Alcotest.(check (float 0.)) "bare" 0. (words_per_step ~observed:false prog);
      Alcotest.(check (float 0.)) "observed" 0. (words_per_step ~observed:true prog))

(* Every add misses a full table, so each one evicts. *)
let test_eviction policy () =
  let cap = 8 and n = 10_000 in
  let t = Tnv.create ~policy ~capacity:cap () in
  for i = 1 to cap do
    Tnv.add t (Int64.of_int i)
  done;
  let w0 = Gc.minor_words () in
  for i = cap + 1 to cap + n do
    Tnv.add t (Int64.of_int i)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "every add evicts" n (Tnv.replacements t);
  Alcotest.(check (float 0.)) "words per miss" 0. ((w1 -. w0) /. float n)

let test_vstate_footprint () =
  let words = Obj.reachable_words (Obj.repr (Vstate.create ())) in
  if words > 143 then
    Alcotest.failf "fresh Vstate.t: %d words, ceiling 143" words

let test_crc32 () =
  let s = String.init 65536 (fun i -> Char.chr (i land 0xFF)) in
  let w0 = Gc.minor_words () in
  let c = Crc32.string s in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity c);
  Alcotest.(check (float 0.)) "words per 64 KB checksum" 0. (w1 -. w0)

let programs input =
  List.map (fun (w : Workload.t) -> w.wbuild input) Workloads.all

(* Minor words per machine step over the train programs; [f] runs one
   program and returns its step count. *)
let run_words f =
  let progs = programs Workload.Train in
  let w0 = Gc.minor_words () in
  let steps = List.fold_left (fun acc p -> acc + f p) 0 progs in
  (Gc.minor_words () -. w0) /. float steps

let check_ceiling what ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.3f minor words/step, ceiling %.2f" what words ceiling

let bare_run p = Machine.run (Machine.create p)
let full_profile p = (Profile.run ~selection:`All p).Profile.dynamic_instructions

let test_bare_run () = check_ceiling "Machine.run" 0.3 (run_words bare_run)

let test_full_profile () =
  check_ceiling "Profile.run ~selection:`All" 1.0 (run_words full_profile)

(* A budget armed on limits so generous they never fire adds the
   machine's periodic [Budget.poll] to every run: a deadline and heap
   check every 4096 steps. Its price in words is the armed run's excess
   over the same run unarmed. *)
let test_armed_budget () =
  let generous =
    { Budget.no_limits with
      deadline = Some 1e9;
      max_heap_words = Some max_int;
      degrade = true }
  in
  List.iter
    (fun (what, run) ->
      let unarmed = run_words run in
      let armed = Budget.govern generous (fun () -> run_words run) in
      if armed -. unarmed > 0.01 then
        Alcotest.failf "%s: armed %.4f vs unarmed %.4f minor words/step, \
                        excess ceiling 0.01" what armed unarmed)
    [ ("Machine.run", bare_run); ("Profile.run ~selection:`All", full_profile) ]

(* Over the test programs, as E11 runs them. *)
let test_prediction () =
  let progs = programs Workload.Test in
  let steps =
    List.fold_left (fun acc p -> acc + bare_run p) 0 progs
  in
  let w0 = Gc.minor_words () in
  List.iter
    (fun p ->
      ignore (Predictor.simulate p (E11_prediction.standard_predictors ())))
    progs;
  check_ceiling "Predictor.simulate, E11 predictors" 0.25
    ((Gc.minor_words () -. w0) /. float steps)

let suite =
  List.map step_case cases
  @ [ Alcotest.test_case "tnv eviction lfu" `Quick (test_eviction Tnv.Lfu);
      Alcotest.test_case "tnv eviction lru" `Quick (test_eviction Tnv.Lru);
      Alcotest.test_case "fresh Vstate footprint" `Quick test_vstate_footprint;
      Alcotest.test_case "Crc32.string over 64 KB" `Quick test_crc32;
      Alcotest.test_case "bare Machine.run over train" `Quick test_bare_run;
      Alcotest.test_case "Profile.run ~selection:`All over train" `Quick
        test_full_profile;
      Alcotest.test_case "armed budget over train" `Quick test_armed_budget;
      Alcotest.test_case "Predictor.simulate over test" `Quick test_prediction ]
