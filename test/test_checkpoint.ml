(* A checkpoint is a directory {!Store} keyed by job name: commit/reload
   roundtrip, salvage of torn manifests, distrust of corrupt payloads,
   and the headline property — a run killed by an injected fault resumes
   to byte-identical output without recomputing committed jobs. *)

let with_faults f = Fun.protect ~finally:Fault.disarm f

let temp_dir () =
  let path = Filename.temp_file "vprof_ckpt" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_store f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let manifest dir = Filename.concat dir "manifest"

let entries ck = (Store.stats ck).Store.st_entries

let checkpoint ck = [ (ck, Fun.id) ]

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_text path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let test_record_reload_roundtrip () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"a" ~payload:"hello\nworld\n";
      Store.put ck ~key:"name with spaces" ~payload:"";
      Alcotest.(check int) "committed" 2 (entries ck);
      Alcotest.(check (option string)) "find a" (Some "hello\nworld\n")
        (Store.find ck "a");
      (* a fresh handle sees exactly what was committed *)
      let ck' = Store.open_dir ~reset:false dir in
      Alcotest.(check int) "reloaded" 2 (entries ck');
      Alcotest.(check (option string)) "payload survives" (Some "hello\nworld\n")
        (Store.find ck' "a");
      Alcotest.(check (option string)) "escaped name survives" (Some "")
        (Store.find ck' "name with spaces");
      Alcotest.(check (option string)) "unknown name" None
        (Store.find ck' "b"))

let test_fresh_start_ignores_old_entries () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"a" ~payload:"x";
      let ck' = Store.open_dir ~reset:true dir in
      Alcotest.(check int) "resume:false starts empty" 0
        (entries ck');
      Alcotest.(check (option string)) "old entry gone" None
        (Store.find ck' "a"))

let test_torn_manifest_tail_dropped () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"first" ~payload:"p1";
      Store.put ck ~key:"second" ~payload:"p2";
      (* tear the manifest mid-way through its last line, as a crash
         during a non-atomic write would *)
      let text = read_text (manifest dir) in
      write_text (manifest dir) (String.sub text 0 (String.length text - 5));
      let ck' = Store.open_dir ~reset:false dir in
      Alcotest.(check int) "torn entry dropped" 1 (entries ck');
      Alcotest.(check (option string)) "earlier entry survives" (Some "p1")
        (Store.find ck' "first");
      Alcotest.(check (option string)) "torn entry not trusted" None
        (Store.find ck' "second"))

let test_garbage_manifest_line_stops_load () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"a" ~payload:"p";
      let text = read_text (manifest dir) in
      write_text (manifest dir) (text ^ "done not-a-real-entry\n");
      let ck' = Store.open_dir ~reset:false dir in
      Alcotest.(check int) "checksummed prefix kept" 1
        (entries ck'))

let test_corrupt_payload_not_trusted () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"job" ~payload:"precious bytes";
      (* flip the payload file behind the manifest's back *)
      let out =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun f -> Filename.check_suffix f ".out")
      in
      write_text (Filename.concat dir out) "precious bytEs";
      let ck' = Store.open_dir ~reset:false dir in
      Alcotest.(check (option string)) "checksum rejects the payload" None
        (Store.find ck' "job");
      Alcotest.(check int) "entry treated as never completed" 0
        (entries ck'))

let test_truncated_payload_not_trusted () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      Store.put ck ~key:"job" ~payload:"precious bytes";
      let out =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun f -> Filename.check_suffix f ".out")
      in
      write_text (Filename.concat dir out) "precious";
      let ck' = Store.open_dir ~reset:false dir in
      Alcotest.(check (option string)) "size check rejects the payload" None
        (Store.find ck' "job"))

(* Satellite property: a committed store whose manifest is cut at EVERY
   byte offset either loads a salvaged prefix or fails cleanly — each
   surviving entry byte-equal to what was committed, never a corrupt
   payload slipping past its checksum, and salvage is prefix-shaped (an
   entry only survives if every earlier one does). *)
let committed = [ ("alpha", "payload one\n"); ("beta two", "p2\x00bin") ]

let check_salvage ~ctx ck' =
  let n = entries ck' in
  Alcotest.(check bool) (ctx ^ ": no more entries than committed") true
    (n <= List.length committed);
  let found =
    List.map (fun (name, payload) ->
        match Store.find ck' name with
        | None -> false
        | Some got ->
          Alcotest.(check string) (ctx ^ ": " ^ name ^ " byte-equal") payload
            got;
          true)
      committed
  in
  Alcotest.(check int) (ctx ^ ": completed counts the survivors") n
    (List.length (List.filter Fun.id found));
  (* prefix-shaped: true, true, ..., false, false, ... *)
  let rec is_prefix = function
    | [] -> true
    | true :: rest -> is_prefix rest
    | false :: rest -> not (List.exists Fun.id rest)
  in
  Alcotest.(check bool) (ctx ^ ": salvage is a prefix") true (is_prefix found)

let test_manifest_cut_at_every_offset () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      List.iter
        (fun (name, payload) -> Store.put ck ~key:name ~payload)
        committed;
      let text = read_text (manifest dir) in
      for cut = 0 to String.length text do
        write_text (manifest dir) (String.sub text 0 cut);
        let ck' = Store.open_dir ~reset:false dir in
        check_salvage ~ctx:(Printf.sprintf "cut at %d" cut) ck'
      done;
      (* the intact manifest still loads everything *)
      write_text (manifest dir) text;
      Alcotest.(check int) "intact manifest loads all" (List.length committed)
        (entries (Store.open_dir ~reset:false dir)))

(* The same property, under random payloads (arbitrary bytes, newlines
   included) and a random cut offset. *)
let prop_truncated_manifest_salvages_cleanly =
  QCheck.Test.make
    ~name:"truncated manifest: salvaged prefix or clean failure" ~count:40
    QCheck.(pair (small_list string) small_nat)
    (fun (payloads, cutpick) ->
      with_store (fun dir ->
          let ck = Store.open_dir ~reset:true dir in
          let named =
            List.mapi (fun i p -> (Printf.sprintf "job-%d" i, p)) payloads
          in
          List.iter
            (fun (name, payload) -> Store.put ck ~key:name ~payload)
            named;
          let text = read_text (manifest dir) in
          let cut = cutpick mod (String.length text + 1) in
          write_text (manifest dir) (String.sub text 0 cut);
          let ck' = Store.open_dir ~reset:false dir in
          entries ck' <= List.length named
          && List.for_all
               (fun (name, payload) ->
                 match Store.find ck' name with
                 | None -> true
                 | Some got -> String.equal got payload)
               named))

let test_rejects_file_as_dir () =
  let path = Filename.temp_file "vprof_ckpt" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Store.open_dir ~reset:true path with
      | _ -> Alcotest.fail "expected Sys_error"
      | exception Sys_error _ -> ())

(* The acceptance scenario: a three-job grid is killed on job b by an
   injected fault; the resumed run serves a from the store, reruns only b
   and c, and the concatenated output is byte-identical to a fault-free
   run's. *)
let test_kill_and_resume_byte_identical () =
  let runs = Array.make 3 0 in
  let jobs () =
    [ ("a", fun () -> runs.(0) <- runs.(0) + 1; "payload-a\n");
      ("b", fun () -> runs.(1) <- runs.(1) + 1; "payload-b\n");
      ("c", fun () -> runs.(2) <- runs.(2) + 1; "payload-c\n") ]
  in
  let concat rep =
    String.concat "" (Supervisor.oks rep)
  in
  (* fault-free reference, no checkpoint *)
  let reference = concat (Supervisor.run_strings ~jobs:1 (jobs ())) in
  Array.fill runs 0 3 0;
  with_store (fun dir ->
      with_faults (fun () ->
          (* the crashed run: job b's only attempt dies, the grid aborts *)
          Fault.arm ~site:"supervisor.job" ~at:2 ();
          let policy =
            { Supervisor.retries = 0; on_error = `Abort }
          in
          let ck = Store.open_dir ~reset:true dir in
          let rep =
            Supervisor.run_strings ~policy ~jobs:1 ~stores:(checkpoint ck)
              (jobs ())
          in
          Alcotest.(check int) "a committed before the crash" 1
            rep.Supervisor.completed;
          Alcotest.(check int) "b failed" 1 rep.Supervisor.failed;
          Alcotest.(check int) "c cancelled" 1 rep.Supervisor.cancelled;
          Alcotest.(check int) "store holds the survivor" 1
            (entries ck));
      (* the resumed run, fault disarmed — as after a process restart *)
      let ck = Store.open_dir ~reset:false dir in
      let rep =
        Supervisor.run_strings ~jobs:1 ~stores:(checkpoint ck) (jobs ())
      in
      Alcotest.(check int) "everything completed" 3 rep.Supervisor.completed;
      Alcotest.(check string) "output byte-identical to fault-free run"
        reference (concat rep);
      (match rep.Supervisor.outcomes with
       | [ a; b; c ] ->
         Alcotest.(check int) "a served from the store" 0
           a.Supervisor.o_attempts;
         Alcotest.(check bool) "b and c ran" true
           (b.Supervisor.o_attempts = 1 && c.Supervisor.o_attempts = 1)
       | _ -> Alcotest.fail "expected three outcomes");
      (* the fault fired before b's body ran, so every job body ran
         exactly once across both runs — nothing was recomputed *)
      Alcotest.(check (array int)) "no job body ran twice" [| 1; 1; 1 |] runs)

(* A fused grid under checkpointing: jobs rendering different profilers
   of the same workload/input all draw on one memoized machine execution
   (the harness), and a killed-then-resumed grid still produces
   byte-identical output, re-fusing whatever it reruns. *)
let grid_workload builds =
  { Workload.wname = "ckpt-fused";
    wmimics = "";
    wdescr = "fused-grid checkpoint workload";
    wbuild =
      (fun _ ->
        Atomic.incr builds;
        let b = Asm.create () in
        Asm.proc b "main" (fun b ->
            Asm.ldi b Isa.t0 6L;
            Asm.ldi b Isa.t1 768L;
            Asm.label b "loop";
            Asm.st b ~src:Isa.t0 ~base:Isa.t1 ~off:0;
            Asm.ld b ~dst:Isa.t2 ~base:Isa.t1 ~off:0;
            Asm.subi b ~dst:Isa.t0 Isa.t0 1L;
            Asm.br b Isa.Gt Isa.t0 "loop";
            Asm.halt b);
        Asm.assemble b ~entry:"main");
    wshard = None;
    warities = [] }

let test_fused_grid_kill_and_resume_byte_identical () =
  let builds = Atomic.make 0 in
  let w = grid_workload builds in
  let jobs () =
    [ ( "profile",
        fun () ->
          let p = Harness.full_profile w Workload.Test in
          Printf.sprintf "profile %d %d\n" p.Profile.profiled_events
            p.Profile.dynamic_instructions );
      ( "procs",
        fun () ->
          let p = Harness.proc_profile w Workload.Test in
          Printf.sprintf "procs %d %d\n" p.Procprof.total_calls
            p.Procprof.dynamic_instructions );
      ( "plain",
        fun () ->
          let m = Harness.plain_run w Workload.Test in
          Printf.sprintf "plain %d\n" (Machine.icount m) ) ]
  in
  let concat rep = String.concat "" (Supervisor.oks rep) in
  (* fault-free reference: the whole grid shares one machine execution *)
  Harness.clear_cache ();
  let reference = concat (Supervisor.run_strings ~jobs:1 (jobs ())) in
  Alcotest.(check int) "grid fused onto one machine execution" 1
    (Harness.machine_runs ());
  Alcotest.(check int) "one program build" 1 (Atomic.get builds);
  with_store (fun dir ->
      with_faults (fun () ->
          (* kill the grid on its second job *)
          Fault.arm ~site:"supervisor.job" ~at:2 ();
          Harness.clear_cache ();
          let ck = Store.open_dir ~reset:true dir in
          let rep =
            Supervisor.run_strings
              ~policy:
                { Supervisor.retries = 0; on_error = `Abort }
              ~jobs:1 ~stores:(checkpoint ck) (jobs ())
          in
          Alcotest.(check int) "first job committed before the crash" 1
            rep.Supervisor.completed);
      (* resume after a "restart": cold cache, fault disarmed *)
      Harness.clear_cache ();
      let ck = Store.open_dir ~reset:false dir in
      let rep =
        Supervisor.run_strings ~jobs:1 ~stores:(checkpoint ck) (jobs ())
      in
      Alcotest.(check int) "everything completed" 3 rep.Supervisor.completed;
      Alcotest.(check string) "resumed output byte-identical" reference
        (concat rep);
      Alcotest.(check int) "resumed jobs re-fused onto one execution" 1
        (Harness.machine_runs ());
      (match rep.Supervisor.outcomes with
       | [ a; _; _ ] ->
         Alcotest.(check int) "committed job served from the store" 0
           a.Supervisor.o_attempts
       | _ -> Alcotest.fail "expected three outcomes"));
  Harness.clear_cache ()

let test_run_strings_commits_as_it_goes () =
  with_store (fun dir ->
      let ck = Store.open_dir ~reset:true dir in
      let rep =
        Supervisor.run_strings ~jobs:2 ~stores:(checkpoint ck)
          [ ("x", fun () -> "X"); ("y", fun () -> "Y") ]
      in
      Alcotest.(check int) "completed" 2 rep.Supervisor.completed;
      Alcotest.(check int) "both committed" 2 (entries ck);
      Alcotest.(check (option string)) "payload stored" (Some "X")
        (Store.find ck "x"))

let suite =
  [ Alcotest.test_case "record/reload roundtrip" `Quick
      test_record_reload_roundtrip;
    Alcotest.test_case "fresh start ignores old entries" `Quick
      test_fresh_start_ignores_old_entries;
    Alcotest.test_case "torn manifest tail dropped" `Quick
      test_torn_manifest_tail_dropped;
    Alcotest.test_case "garbage manifest line stops load" `Quick
      test_garbage_manifest_line_stops_load;
    Alcotest.test_case "corrupt payload not trusted" `Quick
      test_corrupt_payload_not_trusted;
    Alcotest.test_case "truncated payload not trusted" `Quick
      test_truncated_payload_not_trusted;
    Alcotest.test_case "manifest cut at every byte offset" `Quick
      test_manifest_cut_at_every_offset;
    QCheck_alcotest.to_alcotest prop_truncated_manifest_salvages_cleanly;
    Alcotest.test_case "rejects a file where a dir is needed" `Quick
      test_rejects_file_as_dir;
    Alcotest.test_case "kill and resume is byte-identical" `Quick
      test_kill_and_resume_byte_identical;
    Alcotest.test_case "fused grid kill/resume byte-identical" `Quick
      test_fused_grid_kill_and_resume_byte_identical;
    Alcotest.test_case "commits as it goes" `Quick
      test_run_strings_commits_as_it_goes ]
