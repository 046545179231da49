type 'v done_entry = { v : 'v; mutable tick : int }
type 'v entry = Running | Done of 'v done_entry

type ('k, 'v) t = {
  mu : Mutex.t;
  cv : Condition.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  max_entries : int option;
  mutable clock : int;
  mutable computations : int;
}

let m_evictions = Obs.Metrics.counter "memo.evictions"

let create ?(size = 32) ?max_entries () =
  (match max_entries with
   | Some m when m < 1 -> invalid_arg "Memo_cache.create: max_entries < 1"
   | _ -> ());
  { mu = Mutex.create ();
    cv = Condition.create ();
    tbl = Hashtbl.create size;
    max_entries;
    clock = 0;
    computations = 0 }

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Callers hold [t.mu]. Evicts least-recently-used [Done] entries until the
   completed population fits the bound; [Running] entries are never evicted
   (a waiter is latched on them). *)
let enforce_bound t =
  match t.max_entries with
  | None -> ()
  | Some m ->
    let done_count =
      Hashtbl.fold
        (fun _ e acc -> match e with Done _ -> acc + 1 | Running -> acc)
        t.tbl 0
    in
    let excess = done_count - m in
    if excess > 0 then begin
      let victims =
        Hashtbl.fold
          (fun k e acc ->
            match e with Done d -> (d.tick, k) :: acc | Running -> acc)
          t.tbl []
        |> List.sort compare
      in
      List.iteri
        (fun i (_, k) ->
          if i < excess then begin
            Hashtbl.remove t.tbl k;
            Obs.Metrics.incr m_evictions
          end)
        victims
    end

let find_or_compute t k f =
  Mutex.lock t.mu;
  let rec get () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done d) ->
      touch t d;
      Mutex.unlock t.mu;
      d.v
    | Some Running ->
      Condition.wait t.cv t.mu;
      get ()
    | None ->
      Hashtbl.replace t.tbl k Running;
      t.computations <- t.computations + 1;
      Mutex.unlock t.mu;
      (match f () with
       | v ->
         Mutex.lock t.mu;
         let d = { v; tick = 0 } in
         touch t d;
         Hashtbl.replace t.tbl k (Done d);
         enforce_bound t;
         Condition.broadcast t.cv;
         Mutex.unlock t.mu;
         v
       | exception e ->
         (* release the key so a waiter (or a later call) can retry;
            failures are not cached *)
         Mutex.lock t.mu;
         Hashtbl.remove t.tbl k;
         Condition.broadcast t.cv;
         Mutex.unlock t.mu;
         raise e)
  in
  get ()

let running t k =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl k with Some Running -> true | _ -> false
  in
  Mutex.unlock t.mu;
  r

let try_compute t k f =
  Mutex.lock t.mu;
  let absent = not (Hashtbl.mem t.tbl k) in
  Mutex.unlock t.mu;
  (* another domain may claim [k] in between: then this call waits for
     it, which is no worse than the caller waiting elsewhere *)
  if absent then ignore (find_or_compute t k f);
  absent

let computations t =
  Mutex.lock t.mu;
  let n = t.computations in
  Mutex.unlock t.mu;
  n

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  t.computations <- 0;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu
