type job_error =
  | Trap of Machine.trap
  | Timeout of int
  | Io of string
  | Injected of string
  | Cancelled
  | Crash of string
  | Deadline of float
  | Mem_pressure of int

let string_of_error = function
  | Trap t -> Printf.sprintf "trap: %s" (Machine.string_of_trap t)
  | Timeout fuel -> Printf.sprintf "timeout: fuel exhausted (budget %d)" fuel
  | Io msg -> Printf.sprintf "io: %s" msg
  | Injected site -> Printf.sprintf "injected fault at site %S" site
  | Cancelled -> "cancelled before it started"
  | Crash msg -> Printf.sprintf "crash: %s" msg
  | Deadline s -> Printf.sprintf "deadline exceeded (budget %gs)" s
  | Mem_pressure words ->
    Printf.sprintf "memory watermark exceeded (%d heap words)" words

let classify = function
  | Machine.Trap (Machine.Fuel_exhausted f) -> Timeout f
  | Machine.Trap t -> Trap t
  | Fault.Injected site -> Injected site
  | Budget.Deadline_exceeded s -> Deadline s
  | Budget.Mem_pressure words -> Mem_pressure words
  | Budget.Disk_over_budget bytes ->
    Io (Printf.sprintf "checkpoint disk budget exceeded (%d bytes)" bytes)
  | Sys_error msg -> Io msg
  | e -> Crash (Printexc.to_string e)

type policy = {
  retries : int;
  on_error : [ `Skip | `Abort ];
}

let default_policy = { retries = 1; on_error = `Skip }

type 'a outcome = {
  o_name : string;
  o_attempts : int;
  o_result : ('a, job_error) result;
}

type 'a report = {
  outcomes : 'a outcome list;
  completed : int;
  failed : int;
  cancelled : int;
}

let oks r =
  List.filter_map
    (fun o -> match o.o_result with Ok v -> Some v | Error _ -> None)
    r.outcomes

let failures r =
  List.filter (fun o -> Result.is_error o.o_result) r.outcomes

let report_of outcomes =
  let completed, failed, cancelled =
    List.fold_left
      (fun (c, f, x) o ->
        match o.o_result with
        | Ok _ -> (c + 1, f, x)
        | Error Cancelled -> (c, f, x + 1)
        | Error _ -> (c, f + 1, x))
      (0, 0, 0) outcomes
  in
  { outcomes; completed; failed; cancelled }

let m_sup_jobs = Obs.Metrics.counter "supervisor.jobs"
let m_sup_retries = Obs.Metrics.counter "supervisor.retries"
let m_sup_timeouts = Obs.Metrics.counter "supervisor.timeouts"
let m_sup_failures = Obs.Metrics.counter "supervisor.failures"
let m_sup_cancelled = Obs.Metrics.counter "supervisor.cancelled"
let m_sup_deadline = Obs.Metrics.counter "supervisor.deadline"
let m_sup_mem = Obs.Metrics.counter "supervisor.mem_pressure"

(* The supervised core: every item is a (name, run) pair; [run ()]
   performs one attempt. *)
let supervise ?(policy = default_policy) ?jobs items =
  let flag = Pool.cancellation () in
  let cancelled_outcome name =
    Obs.Metrics.incr m_sup_cancelled;
    { o_name = name; o_attempts = 0; o_result = Error Cancelled }
  in
  let run_one (name, run) =
    (* a worker may pop a job between a fatal failure and its cancel
       becoming visible; honour the flag here too *)
    if Pool.cancelled flag then cancelled_outcome name
    else begin
      Obs.Metrics.incr m_sup_jobs;
      Obs.Trace.with_span ~cat:"supervisor" ("supervisor.job:" ^ name)
        (fun () ->
          let rec go k =
            match
              (Fault.point ~site:"supervisor.job";
               (* budgets are enforced between attempts too, so a job
                  that never polls on its own still cannot start past
                  the deadline *)
               Budget.poll ();
               run ())
            with
            | v -> { o_name = name; o_attempts = k + 1; o_result = Ok v }
            | exception e ->
              let err = classify e in
              (match err with
               | Deadline _ ->
                 (* the clock is global: retrying this job cannot
                    succeed, and every job behind it is already past the
                    budget — cancel the rest of the pool cooperatively *)
                 Obs.Metrics.incr m_sup_deadline;
                 Obs.Metrics.incr m_sup_failures;
                 Pool.cancel flag;
                 { o_name = name; o_attempts = k + 1; o_result = Error err }
               | _ ->
                 (match err with
                  | Timeout _ -> Obs.Metrics.incr m_sup_timeouts
                  | Mem_pressure _ -> Obs.Metrics.incr m_sup_mem
                  | Trap _ | Io _ | Injected _ | Cancelled | Crash _
                  | Deadline _ -> ());
                 if k < policy.retries then begin
                   Obs.Metrics.incr m_sup_retries;
                   Obs.Trace.instant ~cat:"supervisor" "supervisor.retry";
                   go (k + 1)
                 end
                 else begin
                   Obs.Metrics.incr m_sup_failures;
                   if policy.on_error = `Abort then Pool.cancel flag;
                   { o_name = name; o_attempts = k + 1; o_result = Error err }
                 end)
          in
          go 0)
    end
  in
  let slots = Pool.map_result ?jobs ~cancel:flag run_one items in
  report_of
    (List.map2
       (fun (name, _) slot ->
         match slot with
         | Some (Ok outcome) -> outcome
         | Some (Error (e, bt)) ->
           (* [run_one] is total; only the pool's own site can raise here *)
           (match e with
            | Fault.Injected _ ->
              { o_name = name; o_attempts = 0; o_result = Error (classify e) }
            | _ -> Printexc.raise_with_backtrace e bt)
         | None -> cancelled_outcome name)
       items slots)


let map ?policy ?jobs ~name f items =
  supervise ?policy ?jobs (List.map (fun x -> (name x, fun () -> f x)) items)

let m_commits = Obs.Metrics.counter "checkpoint.commits"

(* Called from the worker that computed [payload], before the grid moves
   on, so a crash later in the grid cannot lose it. *)
let commit stores name payload =
  match stores with
  | [] -> ()
  | _ ->
    Obs.Metrics.incr m_commits;
    Obs.Trace.with_span ~cat:"driver" "checkpoint.commit" @@ fun () ->
    (* the kill-loop harness arms this to die between a job finishing
       and the stores starting their commit sequence *)
    Fault.point ~site:"checkpoint.commit";
    List.iter
      (fun (store, key) -> Store.put store ~key:(key name) ~payload)
      stores

let run_strings ?policy ?jobs ?(stores = []) ?(scope = fun _ run -> run ())
    named =
  (* each job is looked up once per store, in order, until one serves it *)
  let looked_up =
    List.map
      (fun (name, f) ->
        ( name, f,
          List.find_map (fun (store, key) -> Store.get store (key name)) stores
        ))
      named
  in
  let fresh =
    List.filter_map
      (fun (name, f, cached) ->
        match cached with
        | Some _ -> None
        | None ->
          Some
            ( name,
              fun () ->
                let payload = f () in
                commit stores name payload;
                payload ))
      looked_up
  in
  let ran =
    (scope (List.map fst fresh) @@ fun () -> supervise ?policy ?jobs fresh)
      .outcomes
  in
  (* served payloads rejoin the fresh outcomes in submission order *)
  let rec stitch ran = function
    | [] -> []
    | (name, _, Some payload) :: rest ->
      { o_name = name; o_attempts = 0; o_result = Ok payload }
      :: stitch ran rest
    | (_, _, None) :: rest -> (
      match ran with o :: ran -> o :: stitch ran rest | [] -> assert false)
  in
  report_of (stitch ran looked_up)
