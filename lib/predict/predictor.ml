type t = {
  pname : string;
  ppredict : pc:int -> int64 option;
  pupdate : pc:int -> int64 -> unit;
  pevictions : unit -> int;
}

let name t = t.pname
let predict t ~pc = t.ppredict ~pc
let update t ~pc v = t.pupdate ~pc v
let evictions t = t.pevictions ()

let conf_max = 3

(* Direct-mapped tagged table shared by lvp and stride. *)
type 'a table = {
  mask : int;
  tags : int array; (* -1 = empty *)
  slots : 'a array;
  mutable evicted : int;
}

let make_table bits empty =
  if bits < 1 || bits > 24 then invalid_arg "Predictor: bits out of range";
  let n = 1 lsl bits in
  { mask = n - 1; tags = Array.make n (-1); slots = Array.make n empty;
    evicted = 0 }

(* Returns [Some slot] on a tag hit. *)
let lookup tbl ~pc =
  let i = pc land tbl.mask in
  if tbl.tags.(i) = pc then Some tbl.slots.(i) else None

(* Claims the slot for [pc], counting an eviction when it displaces another
   instruction; returns the (possibly fresh) slot index. *)
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
          if Int64.equal observed s.sstride then s.sconf <- min conf_max (s.sconf + 1)
          else begin
            s.sstride <- observed;
            s.sconf <- 0
          end;
          s.sv <- v
        end);
    pevictions = (fun () -> tbl.evicted) }

(* Finite context method: level 1 keeps the value history per pc, level 2
   maps a hash of that history to the predicted next value. *)
let fcm ?(bits = 12) ?(history = 2) () =
  if history < 1 || history > 8 then invalid_arg "Predictor.fcm: history";
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
  (* Per-pc 2-bit chooser: >=2 prefers [a]. Start neutral. *)
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

type result = {
  pr_name : string;
  pr_events : int;
  pr_predicted : int;
  pr_correct : int;
  pr_accuracy : float;
  pr_coverage : float;
  pr_correct_rate : float;
  pr_evictions : int;
}

let simulate ?(selection = `All) ?fuel prog predictors =
  let machine = Machine.create prog in
  let preds = Array.of_list predictors in
  let n = Array.length preds in
  let events = ref 0 in
  let predicted = Array.make n 0 in
  let correct = Array.make n 0 in
  let pcs = Atom.select prog selection in
  List.iter
    (fun pc ->
      Machine.add_observer machine pc (fun () ->
          let value = Machine.value machine in
          incr events;
          for i = 0 to n - 1 do
            (match preds.(i).ppredict ~pc with
             | Some guess ->
               predicted.(i) <- predicted.(i) + 1;
               if Int64.equal guess value then correct.(i) <- correct.(i) + 1
             | None -> ());
            preds.(i).pupdate ~pc value
          done))
    pcs;
  ignore (Machine.run ?fuel machine);
  Array.to_list
    (Array.mapi
       (fun i p ->
         let ev = !events in
         { pr_name = p.pname;
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
