(* The profile store: fingerprint keys, both backends' get/put/reload
   behavior, checksum distrust, generations + gc, the profile-entry
   layer (v3 bytes under Profile.merge semantics), and the cached payload
   checksums every manifest rewrite relies on. *)

let temp_dir () =
  let path = Filename.temp_file "vprof_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let fp ?fuel ?(shards = 1) ?(config = "") ?(workload = "go") () =
  Store.Fingerprint.make ?fuel ~shards ~config ~profiler:"full"
    ~workload ~input:"test" ()

let program () =
  let w = Workloads.find "go" in
  w.Workload.wbuild Workload.Test

(* A program the pcs of [program ()]'s profiles cannot validate against. *)
let tiny_program () =
  let b = Asm.create () in
  Asm.proc b "main" (fun b -> Asm.halt b);
  Asm.assemble b ~entry:"main"

let test_fingerprint_key_stable_and_distinct () =
  let base = Store.Fingerprint.key (fp ()) in
  Alcotest.(check string) "same fields, same key" base
    (Store.Fingerprint.key (fp ()));
  let variants =
    [ Store.Fingerprint.key (fp ~fuel:1000 ());
      Store.Fingerprint.key (fp ~shards:4 ());
      Store.Fingerprint.key (fp ~config:"tnv=16" ());
      Store.Fingerprint.key (fp ~workload:"li" ());
      Store.Fingerprint.key
        (Store.Fingerprint.make ~profiler:"experiment" ~workload:"go"
           ~input:"test" ()) ]
  in
  List.iter
    (fun k -> Alcotest.(check bool) "field change changes key" true (k <> base))
    variants;
  Alcotest.(check int) "all variants distinct" (List.length variants)
    (List.length (List.sort_uniq compare variants))

let test_fingerprint_key_filesystem_safe () =
  let t =
    Store.Fingerprint.make ~config:"tnv=8 policy=lfu-clear"
      ~profiler:"full" ~workload:"a workload/with bad:chars"
      ~input:"test" ()
  in
  let k = Store.Fingerprint.key t in
  String.iter
    (fun c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '_'
      in
      Alcotest.(check bool) (Printf.sprintf "safe char %C in %s" c k) true ok)
    k

let test_mem_get_put_and_counters () =
  let s = Store.create_mem () in
  let h0 = counter_value "store.hits" in
  let m0 = counter_value "store.misses" in
  let b0 = counter_value "store.bytes_written" in
  Alcotest.(check (option string)) "miss" None (Store.get s "k");
  Store.put s ~key:"k" ~payload:"bytes";
  Alcotest.(check (option string)) "hit" (Some "bytes") (Store.get s "k");
  Alcotest.(check int) "one hit" (h0 + 1) (counter_value "store.hits");
  Alcotest.(check int) "one miss" (m0 + 1) (counter_value "store.misses");
  Alcotest.(check int) "bytes counted" (b0 + 5)
    (counter_value "store.bytes_written");
  (* overwrite in place *)
  Store.put s ~key:"k" ~payload:"other";
  Alcotest.(check (option string)) "overwritten" (Some "other")
    (Store.get s "k");
  let st = Store.stats s in
  Alcotest.(check int) "one entry" 1 st.Store.st_entries;
  Alcotest.(check int) "stats bytes" 5 st.Store.st_bytes

let test_put_rejects_newline_key () =
  let s = Store.create_mem () in
  match Store.put s ~key:"a\nb" ~payload:"x" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dir_persists_across_reopen () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"alpha key" ~payload:"payload one";
      Store.put s ~key:"beta" ~payload:"";
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "payload survives" (Some "payload one")
        (Store.find s' "alpha key");
      Alcotest.(check (option string)) "empty payload survives" (Some "")
        (Store.find s' "beta");
      Alcotest.(check (option string)) "unknown key" None (Store.find s' "x");
      Alcotest.(check int) "entries" 2 (Store.stats s').Store.st_entries)

let test_dir_reset_starts_empty () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"x";
      let s' = Store.open_dir ~reset:true dir in
      Alcotest.(check int) "reset is empty" 0 (Store.stats s').Store.st_entries)

let test_corrupt_payload_not_trusted () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"good" ~payload:"intact";
      Store.put s ~key:"bad" ~payload:"to be corrupted";
      (* smash every payload file that belongs to [bad] *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".out" then begin
            let path = Filename.concat dir f in
            let ic = open_in_bin path in
            let text =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            if text = "to be corrupted" then begin
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc "to be CORRUPTED")
            end
          end)
        (Sys.readdir dir);
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "intact entry served" (Some "intact")
        (Store.find s' "good");
      Alcotest.(check (option string)) "corrupt entry treated as absent" None
        (Store.find s' "bad"))

let test_generations_and_gc () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      let g0 = Store.generation s in
      ignore (Store.new_generation s);
      Store.put s ~key:"old" ~payload:"old bytes";
      ignore (Store.new_generation s);
      Store.put s ~key:"mid" ~payload:"mid bytes";
      ignore (Store.new_generation s);
      Store.put s ~key:"new" ~payload:"new bytes";
      Alcotest.(check int) "three bumps" (g0 + 3) (Store.generation s);
      (* keep the last 2 generations: only [old] is past the cutoff *)
      Alcotest.(check int) "one removed" 1 (Store.gc s ~keep:2);
      Alcotest.(check (option string)) "old gone" None (Store.find s "old");
      Alcotest.(check (option string)) "mid kept" (Some "mid bytes")
        (Store.find s "mid");
      (* the removal is durable and its payload file is gone *)
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "gc durable" None (Store.find s' "old");
      Alcotest.(check int) "payload files match entries" 2
        (Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".out")
        |> List.length);
      (* generation survives reopen *)
      Alcotest.(check int) "generation persisted" (g0 + 3)
        (Store.generation s'))

let test_entries_sorted_with_generations () =
  let s = Store.create_mem () in
  ignore (Store.new_generation s);
  Store.put s ~key:"zeta" ~payload:"zz";
  ignore (Store.new_generation s);
  Store.put s ~key:"alpha" ~payload:"a";
  let infos = Store.entries s in
  Alcotest.(check (list string)) "sorted by key" [ "alpha"; "zeta" ]
    (List.map (fun (i : Store.info) -> i.Store.i_key) infos);
  Alcotest.(check (list int)) "write generations" [ 2; 1 ]
    (List.map (fun (i : Store.info) -> i.Store.i_gen) infos);
  Alcotest.(check (list int)) "byte sizes" [ 1; 2 ]
    (List.map (fun (i : Store.info) -> i.Store.i_bytes) infos)

let test_profile_roundtrip_exact () =
  with_dir (fun dir ->
      let prog = program () in
      let p = Profile.run prog in
      let s = Store.open_dir dir in
      Store.put_profile s ~key:"p" p;
      let s' = Store.open_dir dir in
      match Store.get_profile s' ~program:prog ~key:"p" with
      | None -> Alcotest.fail "expected a stored profile"
      | Some p' ->
        Alcotest.(check string) "text rendering identical"
          (Profile_io.to_string p) (Profile_io.to_string p'))

let test_decode_failure_is_a_miss () =
  let prog = program () in
  let p = Profile.run prog in
  let s = Store.create_mem () in
  Store.put_profile s ~key:"p" p;
  let tiny = tiny_program () in
  let d0 = counter_value "store.decode_failures" in
  Alcotest.(check bool) "decode failure reads as a miss" true
    (Store.get_profile s ~program:tiny ~key:"p" = None);
  Alcotest.(check int) "counted" (d0 + 1)
    (counter_value "store.decode_failures")

let test_merge_into_matches_profile_merge () =
  let prog = program () in
  let p = Profile.run prog in
  let s = Store.create_mem () in
  Store.merge_into s ~program:prog ~key:"m" p;
  Store.merge_into s ~program:prog ~key:"m" p;
  match Store.get_profile s ~program:prog ~key:"m" with
  | None -> Alcotest.fail "expected a merged profile"
  | Some merged ->
    Alcotest.(check string) "equals Profile.merge [p; p]"
      (Profile_io.to_string (Profile.merge [ p; p ]))
      (Profile_io.to_string merged)

(* --- durability & self-healing ------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let payload_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".out")
  |> List.sort compare

let test_replicas_mirror_and_heal () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:2 dir in
      Store.put s ~key:"k" ~payload:"replicated-bytes";
      Alcotest.(check int) "stats replicas" 2
        (Store.stats s).Store.st_replicas;
      let name =
        match payload_files dir with
        | [ f ] -> f
        | fs -> Alcotest.failf "expected one payload, found %d" (List.length fs)
      in
      let primary = Filename.concat dir name in
      let mirror i =
        Filename.concat
          (Filename.concat dir (Printf.sprintf "replica%d" i))
          name
      in
      List.iter
        (fun p ->
          Alcotest.(check string) ("copy at " ^ p) "replicated-bytes"
            (read_file p))
        [ primary; mirror 1; mirror 2 ];
      (* smash the primary: same size, wrong bytes — only the checksum
         can tell, and the replicas keep the entry alive *)
      write_file primary "replicated-BYTES";
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "served from replica"
        (Some "replicated-bytes") (Store.find s' "k");
      let r0 = counter_value "store.read_repairs" in
      Alcotest.(check (option string)) "get read-repairs"
        (Some "replicated-bytes") (Store.get s' "k");
      Alcotest.(check int) "read repair counted" (r0 + 1)
        (counter_value "store.read_repairs");
      Alcotest.(check string) "primary healed byte-identical"
        "replicated-bytes" (read_file primary))

let test_scrub_quarantines_never_deletes () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"precious-bytes!!";
      let name = List.hd (payload_files dir) in
      let replica = Filename.concat (Filename.concat dir "replica1") name in
      write_file replica "precious-BYTES!!";
      let q0 = counter_value "store.quarantined" in
      let c = Store.scrub s in
      Alcotest.(check int) "one entry surveyed" 1 c.Store.c_entries;
      Alcotest.(check int) "primary copy ok" 1 c.Store.c_copies_ok;
      Alcotest.(check int) "one bad copy" 1 c.Store.c_copies_bad;
      Alcotest.(check int) "quarantined" 1 c.Store.c_quarantined;
      Alcotest.(check int) "quarantine counted" (q0 + 1)
        (counter_value "store.quarantined");
      Alcotest.(check bool) "moved aside, not deleted" true
        (Sys.file_exists (replica ^ ".corrupt"));
      Alcotest.(check string) "wreckage preserved byte-for-byte"
        "precious-BYTES!!"
        (read_file (replica ^ ".corrupt"));
      Alcotest.(check bool) "original name gone" false
        (Sys.file_exists replica))

let test_repair_restores_byte_identical () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"golden-payload-bytes";
      let name = List.hd (payload_files dir) in
      let primary = Filename.concat dir name in
      write_file primary "mangled";
      let s' = Store.open_dir dir in
      Alcotest.(check bool) "verify flags the damage" false
        (Store.check_clean (Store.verify s'));
      let r = Store.repair s' in
      Alcotest.(check int) "one copy repaired" 1 r.Store.c_repaired;
      Alcotest.(check int) "nothing lost" 0 r.Store.c_lost;
      Alcotest.(check string) "byte-identical restoration"
        "golden-payload-bytes" (read_file primary);
      Alcotest.(check bool) "clean after repair" true
        (Store.check_clean (Store.verify s')))

let test_orphan_tmp_swept_on_open () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"v";
      (* a crashed atomic commit leaves temp files behind, in the
         primary and in replica trees alike *)
      write_file (Filename.concat dir "stranded.tmp") "half-written";
      write_file
        (Filename.concat (Filename.concat dir "replica1") "also.tmp")
        "x";
      let o0 = counter_value "store.orphans_swept" in
      let s' = Store.open_dir dir in
      Alcotest.(check int) "both orphans counted" (o0 + 2)
        (counter_value "store.orphans_swept");
      Alcotest.(check bool) "primary orphan gone" false
        (Sys.file_exists (Filename.concat dir "stranded.tmp"));
      Alcotest.(check (option string)) "entries untouched" (Some "v")
        (Store.find s' "k"))

let test_decode_failure_quarantined_on_disk () =
  with_dir (fun dir ->
      let prog = program () in
      let p = Profile.run prog in
      let s = Store.open_dir dir in
      Store.put_profile s ~key:"p" p;
      let name = List.hd (payload_files dir) in
      (* bytes that pass their CRC yet cannot decode against [tiny] *)
      let tiny = tiny_program () in
      let q0 = counter_value "store.quarantined" in
      Alcotest.(check bool) "undecodable bytes dropped" true
        (Store.get_profile s ~program:tiny ~key:"p" = None);
      Alcotest.(check bool) "poisoned payload quarantined" true
        (Sys.file_exists (Filename.concat dir (name ^ ".corrupt")));
      Alcotest.(check int) "quarantine counted" (q0 + 1)
        (counter_value "store.quarantined");
      let m0 = counter_value "store.misses" in
      Alcotest.(check bool) "second lookup is a plain miss" true
        (Store.get_profile s ~program:tiny ~key:"p" = None);
      Alcotest.(check int) "miss counted" (m0 + 1)
        (counter_value "store.misses");
      (* the quarantined entry stays gone across a reopen *)
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "absent after reopen" None
        (Store.find s' "p"))

(* --- cached payload checksums --------------------------------------- *)

(* The store's primary payload file for a key made of filename-safe
   characters. *)
let primary_path dir key =
  Filename.concat dir
    (Printf.sprintf "%s-%s.out" key (Crc32.to_hex (Crc32.string key)))

(* Every [done] row of the manifest names the checksum of its primary
   payload file as it is on disk now. *)
let check_manifest_crcs dir =
  let rows =
    String.split_on_char '\n' (read_file (Filename.concat dir "manifest"))
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "done"; key; _gen; _bytes; payload; _line ] ->
             Some (key, payload)
           | _ -> None)
  in
  List.iter
    (fun (key, payload) ->
      Alcotest.(check string) ("manifest checksum of " ^ key)
        ("payload=" ^ Crc32.to_hex (Crc32.string (read_file (primary_path dir key))))
        payload)
    rows;
  List.length rows

let test_mirror_recovery_persists () =
  with_dir (fun dir ->
      let prog = program () in
      let tiny = tiny_program () in
      let good = Profile_io.to_binary (Profile.run tiny) in
      let s = Store.open_dir ~replicas:1 dir in
      (* the primary holds bytes that pass their checksum yet do not decode
         against [tiny]; only the replica's bytes do *)
      Store.put_profile s ~key:"p" (Profile.run prog);
      write_file (Filename.concat (Filename.concat dir "replica1")
                    (Filename.basename (primary_path dir "p")))
        good;
      let s' = Store.open_dir dir in
      Alcotest.(check bool) "recovered from the mirror" true
        (Store.get_profile s' ~program:tiny ~key:"p" <> None);
      Alcotest.(check string) "primary healed" good
        (read_file (primary_path dir "p"));
      ignore (check_manifest_crcs dir);
      let s'' = Store.open_dir dir in
      Alcotest.(check (option string)) "reopen serves the recovered bytes"
        (Some good) (Store.find s'' "p");
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s'')))

(* A crash after a put's bytes landed replays the journal on open, over a
   live entry and over a key the manifest never recorded; the next
   manifest must carry the replayed bytes' checksums. *)
let test_journal_replay_persists () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"live" ~payload:"old-bytes";
      let landed key payload =
        write_file (primary_path dir key) payload;
        Journal.append_intent ~dir
          (Journal.Put
             { key; gen = 3; bytes = String.length payload;
               crc = Crc32.string payload })
      in
      landed "live" "new-bytes!";
      landed "fresh" "fresh-bytes";
      let s' = Store.open_dir dir in
      Alcotest.(check int) "both rows" 2 (check_manifest_crcs dir);
      ignore (Store.new_generation s');
      let s'' = Store.open_dir dir in
      Alcotest.(check (option string)) "live entry rolled forward"
        (Some "new-bytes!") (Store.find s'' "live");
      Alcotest.(check (option string)) "fresh entry rolled forward"
        (Some "fresh-bytes") (Store.find s'' "fresh");
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s'')))

let test_seeded_ops_keep_manifest_crcs () =
  with_dir (fun dir ->
      let rng = Random.State.make [| 15 |] in
      let keys = [| "k0"; "k1"; "k2"; "k3"; "k4"; "k5" |] in
      let s = ref (Store.open_dir ~replicas:1 dir) in
      let model = Hashtbl.create 8 in
      for _ = 1 to 60 do
        (match Random.State.int rng 6 with
         | 0 | 1 | 2 ->
           let key = keys.(Random.State.int rng (Array.length keys)) in
           let payload =
             String.init (Random.State.int rng 200) (fun _ ->
                 Char.chr (Random.State.int rng 256))
           in
           Store.put !s ~key ~payload;
           Hashtbl.replace model key payload
         | 3 -> ignore (Store.new_generation !s)
         | 4 ->
           ignore (Store.gc !s ~keep:(1 + Random.State.int rng 3));
           Hashtbl.filter_map_inplace
             (fun key payload ->
               if Store.find !s key = None then None else Some payload)
             model
         | _ -> s := Store.open_dir dir);
        Alcotest.(check int) "one row per live entry" (Hashtbl.length model)
          (check_manifest_crcs dir)
      done;
      let s' = Store.open_dir dir in
      Hashtbl.iter
        (fun key payload ->
          Alcotest.(check (option string)) ("reopened " ^ key) (Some payload)
            (Store.find s' key))
        model;
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s')))

let suite =
  [ Alcotest.test_case "fingerprint key stable and distinct" `Quick
      test_fingerprint_key_stable_and_distinct;
    Alcotest.test_case "fingerprint key filesystem-safe" `Quick
      test_fingerprint_key_filesystem_safe;
    Alcotest.test_case "mem get/put and counters" `Quick
      test_mem_get_put_and_counters;
    Alcotest.test_case "put rejects newline key" `Quick
      test_put_rejects_newline_key;
    Alcotest.test_case "dir persists across reopen" `Quick
      test_dir_persists_across_reopen;
    Alcotest.test_case "reset starts empty" `Quick test_dir_reset_starts_empty;
    Alcotest.test_case "corrupt payload not trusted" `Quick
      test_corrupt_payload_not_trusted;
    Alcotest.test_case "generations and gc" `Quick test_generations_and_gc;
    Alcotest.test_case "entries sorted with generations" `Quick
      test_entries_sorted_with_generations;
    Alcotest.test_case "profile roundtrip exact" `Quick
      test_profile_roundtrip_exact;
    Alcotest.test_case "decode failure is a miss" `Quick
      test_decode_failure_is_a_miss;
    Alcotest.test_case "merge_into matches Profile.merge" `Quick
      test_merge_into_matches_profile_merge;
    Alcotest.test_case "replicas mirror and heal" `Quick
      test_replicas_mirror_and_heal;
    Alcotest.test_case "scrub quarantines, never deletes" `Quick
      test_scrub_quarantines_never_deletes;
    Alcotest.test_case "repair restores byte-identical" `Quick
      test_repair_restores_byte_identical;
    Alcotest.test_case "orphan tmp swept on open" `Quick
      test_orphan_tmp_swept_on_open;
    Alcotest.test_case "decode failure quarantined on disk" `Quick
      test_decode_failure_quarantined_on_disk;
    Alcotest.test_case "mirror recovery persists" `Quick
      test_mirror_recovery_persists;
    Alcotest.test_case "journal replay persists" `Quick
      test_journal_replay_persists;
    Alcotest.test_case "seeded ops keep manifest checksums" `Quick
      test_seeded_ops_keep_manifest_crcs ]
