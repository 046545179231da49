(* CRC-32: the standard check values, the slicing-by-8 kernel against a
   bytewise reference at every alignment and length, and [sub]'s range
   checks. *)

(* The textbook one-table, one-byte-at-a-time CRC-32 the kernel must
   agree with. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference s pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_known_answers () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "crc of %S" s) (Crc32.to_hex want)
        (Crc32.to_hex (Crc32.string s)))
    [ ("", 0);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339) ]

(* Every start offset mod 8 and every length 0..17 inside one buffer:
   the full-word loop, the byte tail and their hand-over all run. *)
let test_alignments () =
  let s = String.init 64 (fun i -> Char.chr ((i * 151 + 7) land 0xFF)) in
  for pos = 0 to 7 do
    for len = 0 to 17 do
      Alcotest.(check int) (Printf.sprintf "pos %d len %d" pos len)
        (reference s pos len) (Crc32.sub s pos len)
    done
  done

let test_long () =
  let rng = Random.State.make [| 15 |] in
  let s = String.init 100_003 (fun _ -> Char.chr (Random.State.int rng 256)) in
  Alcotest.(check int) "100 KB string" (reference s 0 (String.length s))
    (Crc32.string s);
  Alcotest.(check int) "unaligned long sub" (reference s 5 99_990)
    (Crc32.sub s 5 99_990)

let prop_matches_reference =
  let gen =
    QCheck.Gen.(
      string_size ~gen:char (int_range 0 300) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >>= fun len -> return (s, pos, len))
  in
  QCheck.Test.make ~name:"sub matches the bytewise reference" ~count:1000
    (QCheck.make gen ~print:(fun (s, pos, len) ->
         Printf.sprintf "(%S, %d, %d)" s pos len))
    (fun (s, pos, len) -> Crc32.sub s pos len = reference s pos len)

let test_sub_rejects_bad_ranges () =
  List.iter
    (fun (pos, len) ->
      match Crc32.sub "abcdefghij" pos len with
      | _ -> Alcotest.failf "sub %d %d: expected Invalid_argument" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (0, 11); (10, 1); (11, 0); (3, 8); (max_int, 1) ]

let suite =
  [ Alcotest.test_case "known answers" `Quick test_known_answers;
    Alcotest.test_case "every alignment and short length" `Quick
      test_alignments;
    Alcotest.test_case "long strings" `Quick test_long;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "sub rejects bad ranges" `Quick
      test_sub_rejects_bad_ranges ]
