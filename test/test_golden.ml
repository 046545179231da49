(* The CLI behaviour contract: every profiler subcommand, [fused] over
   all nine profilers and over its default list, and a sharded [profile]
   run print exactly the bytes recorded in test/golden/<name>.out — at
   -j 1 and at -j 2 alike. Inputs are small (m88ksim, test data set) and
   every table is capped with a fixed -t, so the whole contract runs in
   a fraction of a second.

   To re-record after an intended output change (or to record a newly
   registered profiler), from the repository root, with NAME and ARGS
   as in [cases] below:
     dune build && ./_build/default/bin/vprof.exe ARGS -j 1 \
       > test/golden/NAME.out *)

let vprof = "../bin/vprof.exe"

(* Flags beyond the workload for the profiler subcommands that take
   them; every other registered profiler runs with none. *)
let extra_args =
  [ ("profile", " -t 5"); ("memory", " -t 5");
    ("phases", " -t 5 --window 500"); ("speculate", " -t 5") ]

(* (golden file name, command line without -j): one case per registered
   profiler, so a registration without a golden file fails here *)
let cases =
  List.map
    (fun name ->
      ( name,
        Printf.sprintf "%s -w m88ksim%s" name
          (Option.value (List.assoc_opt name extra_args) ~default:"") ))
    Registry.names
  @ [ ("fused_all",
       "fused -w m88ksim --profilers " ^ String.concat "," Registry.names);
      ("fused_default", "fused -w m88ksim");
      ("profile_shards2", "profile -w m88ksim -t 5 --shards 2") ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden name = Filename.concat "golden" (name ^ ".out")

(* stdout alone: the contract covers what a pipe downstream would see *)
let stdout_of args =
  let out = Filename.temp_file "vprof_golden" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s" (Filename.quote vprof) args
             (Filename.quote out))
      in
      (code, read_file out))

let check_case (name, args) () =
  let path = golden name in
  if not (Sys.file_exists path) then Alcotest.failf "no golden file %s" path;
  let want = read_file path in
  List.iter
    (fun jobs ->
      let line = Printf.sprintf "%s -j %d" args jobs in
      let code, got = stdout_of line in
      Alcotest.(check int) (line ^ ": exit code") 0 code;
      Alcotest.(check string) (line ^ ": bytes") want got)
    [ 1; 2 ]

let suite =
  List.map
    (fun ((name, _) as case) ->
      Alcotest.test_case name `Quick (check_case case))
    cases
