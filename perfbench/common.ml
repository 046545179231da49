(* Shared plumbing for the benchmark: the clock and its host-speed
   calibration, the workload programs, store keys, golden digests and
   the output directory every run writes under. *)

let now = Unix.gettimeofday

(* ---- Host-speed calibration -------------------------------------------- *)

(* The benchmark runs on shared hosts whose speed drifts by up to 1.7x
   over tens of seconds as other tenants come and go: medians of raw
   wall time from two runs a minute apart can differ by a third. So
   every timed interval is bracketed by runs of a fixed calibration
   kernel, and the interval is scaled by the kernel's nominal time over
   its measured time — the interval as it would read on a host running
   the kernel in exactly [kernel_nominal_s]. The kernel is integer and
   array work on a 32 KB table: it calls no vprof code, allocates
   nothing, and its table is small enough that whatever ran before it
   leaves its time alone, so no change to vprof's libraries moves it. *)

let kernel_nominal_s = 0.0005

let kernel_table = Array.make 4096 0

let kernel () =
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let j = (i * 2654435761) land 4095 in
    let y = (Array.unsafe_get kernel_table j lxor i) + (!acc lsr 3) in
    Array.unsafe_set kernel_table j y;
    acc := !acc + (y land 0xff)
  done;
  ignore (Sys.opaque_identity !acc)

let kernel_s () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* [calibrated f] runs [f] between two kernel runs, each under [around]
   (the traced run gives them a span of their own); returns [f]'s result,
   its scaled time and the host slowdown (measured over nominal kernel
   time) it was scaled by. *)
let calibrated ?(around = fun k -> k ()) f =
  let k0 = around kernel_s in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let slowdown = (k0 +. around kernel_s) /. (2. *. kernel_nominal_s) in
  (r, dt /. slowdown, slowdown)

let percentile p xs = Stats.percentile p (Array.of_list xs)

let median xs = percentile 50. xs

(* Peak resident set size in MB (VmHWM), falling back to the major
   heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float kb /. 1024.)
            | None -> scan ())
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ---- Programs --------------------------------------------------------- *)

type program = { w : Workload.t; input : Workload.input; prog : Asm.program }

let label_of p =
  Printf.sprintf "%s/%s" p.w.Workload.wname (Workload.string_of_input p.input)

(* The 24 built-in programs: every workload on its test and train input,
   in registry order. *)
let build_programs () =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun input -> { w; input; prog = w.wbuild input })
        [ Workload.Test; Workload.Train ])
    Workloads.all

let train programs = List.filter (fun p -> p.input = Workload.Train) programs

(* TNV capacities the store is filled under; 8 is the profiler default. *)
let capacities = [ 1; 2; 4; 6; 8; 10; 12; 16 ]

let default_capacity = Vstate.default_config.Vstate.tnv_capacity

let vconfig cap = { Vstate.default_config with Vstate.tnv_capacity = cap }

(* The key a `--store` invocation files a full profile under. *)
let store_key p cap =
  Store.Fingerprint.(
    key
      (make
         ~config:(profile_config (vconfig cap) ~selection:"all")
         ~profiler:"full" ~workload:p.w.Workload.wname
         ~input:(Workload.string_of_input p.input) ()))

(* ---- Golden digests --------------------------------------------------- *)

let profile_label p cap = Printf.sprintf "profile/%s/cap%d" (label_of p) cap

let experiment_label id = "experiment/" ^ id

let digest s = Digest.to_hex (Digest.string s)

let profile_digest prof = digest (Profile_io.to_binary prof)

let golden_file dir = Filename.concat dir "digests.txt"

(* One "<label> <md5>" line per golden output. *)
let load_golden dir =
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text (golden_file dir) (fun ic ->
      In_channel.input_all ic
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ label; d ] -> Hashtbl.replace tbl label d
             | _ -> ()));
  tbl

let matches golden label d = Hashtbl.find_opt golden label = Some d

(* ---- Output files ----------------------------------------------------- *)

(* Everything a run writes (store directories, trace files) lives under
   this directory, relative to the checkout root the benchmark runs in. *)
let out_dir = Filename.concat "perfbench" "_out"

let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
