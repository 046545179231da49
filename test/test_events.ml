(* The machine's observable behaviour, pinned per built-in program: one
   MD5 over the full (pc, value, addr) event stream an observer sees
   through [Machine.add_hook] on every pc, the final registers, and the
   touched memory words sorted by address. A change to how the machine
   represents its state must leave every digest as it is.

   A failing case prints the digest it computed; after an intended
   change to a workload or to machine semantics, paste it into
   [expected] below. *)

(* Events are packed little-endian into a fixed chunk; each full chunk
   is folded into a running MD5, so the stream is never held whole. *)
type sink = { buf : Bytes.t; mutable len : int; mutable acc : Digest.t }

let chunk = 1 lsl 16

let flush s =
  s.acc <- Digest.string (s.acc ^ Bytes.sub_string s.buf 0 s.len);
  s.len <- 0

let put s v =
  if s.len + 8 > chunk then flush s;
  Bytes.set_int64_le s.buf s.len v;
  s.len <- s.len + 8

let digest_program (prog : Asm.program) =
  let s = { buf = Bytes.create chunk; len = 0; acc = Digest.string "" } in
  let m = Machine.create prog in
  for pc = 0 to Array.length prog.code - 1 do
    Machine.add_hook m pc (fun v a ->
        put s (Int64.of_int pc);
        put s v;
        put s a)
  done;
  let steps = Machine.run m in
  put s (Int64.of_int steps);
  for r = 0 to Isa.num_regs - 1 do
    put s (Machine.reg m r)
  done;
  let words = ref [] in
  Memory.iter_touched (Machine.memory m) (fun a v -> words := (a, v) :: !words);
  List.iter
    (fun (a, v) ->
      put s a;
      put s v)
    (List.sort (fun (a, _) (b, _) -> Int64.compare a b) !words);
  flush s;
  Digest.to_hex s.acc

let expected =
  [ ("compress/test", "d72454d8d35479c911bf86c2874e30bb");
    ("compress/train", "2af599b75948b7aabf0aa23b4978a61a");
    ("cc/test", "b8e12e680368c9a850b7e2ed013d0410");
    ("cc/train", "08d973869407f81ecb7fa31ef2e48d98");
    ("go/test", "c47245926f974de1ef33e9b1a54e03e0");
    ("go/train", "34fdc4bb3d7388a9fd325d0286e73eef");
    ("ijpeg/test", "b5eae658802ce0580d33a8f2cf4cf370");
    ("ijpeg/train", "dd7e87d1895836cc322cd6c7651973a1");
    ("li/test", "25a46b5bf40b874fa057be32e58f9215");
    ("li/train", "6a2ad4d45324014338303f2a6901d071");
    ("perl/test", "3fed71008f48ff5f4639be130a31c867");
    ("perl/train", "de2035714a8ae66df8bd3635e06a8a53");
    ("m88ksim/test", "9719372844425b36cf164b0f33eeb043");
    ("m88ksim/train", "68176c5bde4f83e48e27f649b45e45a7");
    ("vortex/test", "e50af8ca2e75d4e89b23c61f09ceea6c");
    ("vortex/train", "9b55fc233ca40402a3a37dd68b6372fa");
    ("alvinn/test", "632f7b7a274533a87ec641a4e4ec62a5");
    ("alvinn/train", "28a740cddfb36273670979f1caccf021");
    ("swim/test", "65dc5ed04b7db5b6d6937cdc98494304");
    ("swim/train", "f6946e9fd55131f491e47003ffc6f06b");
    ("tomcatv/test", "48ba24d980e4b21650ba362b3475fac1");
    ("tomcatv/train", "e3c021c319b212a43a7263264d62f814");
    ("fpppp/test", "b575fc3e513e33fe2213533f6c137128");
    ("fpppp/train", "3fa3ab96ae1c191dacd4ed545ffc5aa7") ]

let case (w : Workload.t) input =
  let name = w.wname ^ "/" ^ Workload.string_of_input input in
  Alcotest.test_case name `Quick (fun () ->
      let want =
        match List.assoc_opt name expected with
        | Some d -> d
        | None -> Alcotest.failf "%s: no expected digest" name
      in
      let got = digest_program (w.wbuild input) in
      if got <> want then Alcotest.failf "%s: event digest %s, want %s" name got want)

let suite =
  List.concat_map
    (fun w -> [ case w Workload.Test; case w Workload.Train ])
    Workloads.all
