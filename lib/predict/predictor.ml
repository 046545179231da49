external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Outcomes of [step]. *)
let none = 0
let wrong = 1
let right = 2

(* Values travel between a model and its caller in 8-byte cells, so no
   [int64] crosses a closure boundary boxed and no option is built:
   [guess pc cell] writes the prediction into [cell] and returns [true], or
   returns [false] (the cell then holds garbage); [train pc cell] learns
   the outcome held in [cell]; [step pc cell] is [guess] followed by
   [train] on the outcome in [cell], returning [none], [wrong] or [right],
   and never writes [cell]. *)
type t = {
  pname : string;
  guess : int -> Bytes.t -> bool;
  train : int -> Bytes.t -> unit;
  step : int -> Bytes.t -> int;
  pevictions : unit -> int;
  io : Bytes.t; (* the cell behind the boxing [predict]/[update] *)
}

let cell () = Bytes.make 8 '\000'

let[@inline] copy_cell ~src ~dst = set64 dst 0 (get64 src 0)

let make pname ~guess ~train ~step pevictions =
  { pname; guess; train; step; pevictions; io = cell () }

let name t = t.pname

let check_pc pc = if pc < 0 then invalid_arg "Predictor: negative pc"

let predict t ~pc =
  check_pc pc;
  if t.guess pc t.io then Some (get64 t.io 0) else None

let update t ~pc v =
  check_pc pc;
  set64 t.io 0 v;
  t.train pc t.io

let evictions t = t.pevictions ()

let conf_max = 3

(* A pc-indexed byte array of [width] bytes per pc that doubles on demand
   to cover any pc; cells not yet written read as [fill]. *)
module Pc_bytes = struct
  type t = {
    mutable b : Bytes.t;
    mutable pcs : int; (* pcs covered: [Bytes.length b / width] *)
    width : int;
    fill : char;
  }

  let create ~width fill =
    { b = Bytes.make (64 * width) fill; pcs = 64; width; fill }

  let[@inline] covers t pc = pc < t.pcs

  let grow t pc =
    let n = ref t.pcs in
    while !n <= pc do n := 2 * !n done;
    let b = Bytes.make (!n * t.width) t.fill in
    Bytes.blit t.b 0 b 0 (Bytes.length t.b);
    t.b <- b;
    t.pcs <- !n

  let[@inline] ensure t pc = if not (covers t pc) then grow t pc

  (* The byte at [pc] of a width-1 array. *)
  let[@inline] get t pc = if covers t pc then Bytes.get t.b pc else t.fill
end

(* Direct-mapped tagged table shared by lvp and stride: slot [i] is
   [tags.(i)], [conf.(i)], and 8 bytes at [8 * i] of [values] (the last
   value) and of [strides] (stride only). *)
type table = {
  mask : int;
  tags : int array; (* -1 = empty; pcs are non-negative *)
  conf : int array;
  values : Bytes.t;
  strides : Bytes.t;
  mutable evicted : int;
}

let make_table bits =
  if bits < 1 || bits > 24 then invalid_arg "Predictor: bits out of range";
  let n = 1 lsl bits in
  { mask = n - 1; tags = Array.make n (-1); conf = Array.make n 0;
    values = Bytes.make (8 * n) '\000'; strides = Bytes.make (8 * n) '\000';
    evicted = 0 }

(* Hands slot [i] to [pc], counting an eviction when it displaces another
   instruction. *)
let claim tbl i pc =
  if tbl.tags.(i) >= 0 then tbl.evicted <- tbl.evicted + 1;
  tbl.tags.(i) <- pc

let lvp_guess tbl thr pc c =
  let i = pc land tbl.mask in
  tbl.tags.(i) = pc
  && tbl.conf.(i) >= thr
  && (set64 c 0 (get64 tbl.values (8 * i));
      true)

(* Trains slot [i], already tagged [pc], on the value in [c]; returns
   whether the value repeated. A fresh slot starts from value 0. *)
let lvp_learn tbl i c =
  let v = get64 c 0 in
  if Int64.equal (get64 tbl.values (8 * i)) v then begin
    tbl.conf.(i) <- min conf_max (tbl.conf.(i) + 1);
    true
  end
  else begin
    set64 tbl.values (8 * i) v;
    tbl.conf.(i) <- 0;
    false
  end

let lvp_claim tbl i pc =
  if tbl.tags.(i) <> pc then begin
    claim tbl i pc;
    set64 tbl.values (8 * i) 0L;
    tbl.conf.(i) <- 0
  end

let lvp_train tbl pc c =
  let i = pc land tbl.mask in
  lvp_claim tbl i pc;
  ignore (lvp_learn tbl i c)

let lvp_step tbl thr pc c =
  let i = pc land tbl.mask in
  let confident = tbl.tags.(i) = pc && tbl.conf.(i) >= thr in
  lvp_claim tbl i pc;
  let repeated = lvp_learn tbl i c in
  if not confident then none else if repeated then right else wrong

let lvp ?(bits = 10) ?(conf_threshold = 1) () =
  let tbl = make_table bits in
  let thr = conf_threshold in
  make (Printf.sprintf "lvp-%d" (1 lsl bits))
    ~guess:(fun pc c -> lvp_guess tbl thr pc c)
    ~train:(fun pc c -> lvp_train tbl pc c)
    ~step:(fun pc c -> lvp_step tbl thr pc c)
    (fun () -> tbl.evicted)

let stride_guess tbl thr pc c =
  let i = pc land tbl.mask in
  tbl.tags.(i) = pc
  && tbl.conf.(i) >= thr
  && (set64 c 0
        (Int64.add (get64 tbl.values (8 * i)) (get64 tbl.strides (8 * i)));
      true)

(* A slot is claimed by the first value it sees: that value becomes its
   last value, with stride 0 and no confidence. *)
let stride_train tbl pc c =
  let i = pc land tbl.mask in
  let o = 8 * i in
  let v = get64 c 0 in
  if tbl.tags.(i) <> pc then begin
    claim tbl i pc;
    set64 tbl.strides o 0L;
    tbl.conf.(i) <- 0
  end
  else begin
    let observed = Int64.sub v (get64 tbl.values o) in
    if Int64.equal observed (get64 tbl.strides o) then
      tbl.conf.(i) <- min conf_max (tbl.conf.(i) + 1)
    else begin
      set64 tbl.strides o observed;
      tbl.conf.(i) <- 0
    end
  end;
  set64 tbl.values o v

let stride_step tbl thr pc c =
  let i = pc land tbl.mask in
  let r =
    if tbl.tags.(i) = pc && tbl.conf.(i) >= thr then
      if Int64.equal
           (Int64.add (get64 tbl.values (8 * i)) (get64 tbl.strides (8 * i)))
           (get64 c 0)
      then right
      else wrong
    else none
  in
  stride_train tbl pc c;
  r

let stride ?(bits = 10) ?(conf_threshold = 1) () =
  let tbl = make_table bits in
  let thr = conf_threshold in
  make (Printf.sprintf "stride-%d" (1 lsl bits))
    ~guess:(fun pc c -> stride_guess tbl thr pc c)
    ~train:(fun pc c -> stride_train tbl pc c)
    ~step:(fun pc c -> stride_step tbl thr pc c)
    (fun () -> tbl.evicted)

(* Finite context method: level 1 keeps the value history per pc, level 2
   maps a hash of that history to the predicted next value. *)
type fcm = {
  history : int;
  l2mask : int;
  l2 : Bytes.t; (* 8 bytes per entry *)
  l2_set : Bytes.t; (* '\001' once the entry holds a value *)
  hist : Pc_bytes.t; (* [history] values per pc, oldest first *)
  hist_set : Pc_bytes.t; (* '\001' once the pc has a history *)
  mutable fevicted : int;
}

let fcm_hash f pc =
  let h = ref (pc * 0x9E3779B1) in
  let base = 8 * f.history * pc in
  for k = 0 to f.history - 1 do
    let v = get64 f.hist.b (base + (8 * k)) in
    h := (!h lxor Int64.to_int (Int64.mul v 0x100000001B3L)) * 0x01000193
  done;
  !h land f.l2mask

let[@inline] fcm_known f pc = Pc_bytes.get f.hist_set pc <> '\000'

let fcm_guess f pc c =
  fcm_known f pc
  &&
  let idx = fcm_hash f pc in
  Bytes.get f.l2_set idx <> '\000'
  && (set64 c 0 (get64 f.l2 (8 * idx));
      true)

(* Records the value in [c] at entry [idx] (the hash of [pc]'s history)
   and shifts it into the history. *)
let fcm_record f pc idx c =
  let v = get64 c 0 in
  if Bytes.get f.l2_set idx <> '\000'
     && not (Int64.equal (get64 f.l2 (8 * idx)) v)
  then f.fevicted <- f.fevicted + 1;
  set64 f.l2 (8 * idx) v;
  Bytes.set f.l2_set idx '\001';
  let base = 8 * f.history * pc in
  Bytes.blit f.hist.b (base + 8) f.hist.b base (8 * (f.history - 1));
  set64 f.hist.b (base + (8 * (f.history - 1))) v

let fcm_open f pc =
  Pc_bytes.ensure f.hist pc;
  Pc_bytes.ensure f.hist_set pc;
  Bytes.set f.hist_set.b pc '\001'

let fcm_train f pc c =
  fcm_open f pc;
  fcm_record f pc (fcm_hash f pc) c

let fcm_step f pc c =
  let known = fcm_known f pc in
  fcm_open f pc;
  let idx = fcm_hash f pc in
  let r =
    if known && Bytes.get f.l2_set idx <> '\000' then
      if Int64.equal (get64 f.l2 (8 * idx)) (get64 c 0) then right else wrong
    else none
  in
  fcm_record f pc idx c;
  r

let fcm ?(bits = 12) ?(history = 2) () =
  if history < 1 || history > 8 then invalid_arg "Predictor.fcm: history";
  let l2n = 1 lsl bits in
  let f =
    { history; l2mask = l2n - 1;
      l2 = Bytes.make (8 * l2n) '\000'; l2_set = Bytes.make l2n '\000';
      hist = Pc_bytes.create ~width:(8 * history) '\000';
      hist_set = Pc_bytes.create ~width:1 '\000';
      fevicted = 0 }
  in
  make (Printf.sprintf "fcm-%d" l2n)
    ~guess:(fun pc c -> fcm_guess f pc c)
    ~train:(fun pc c -> fcm_train f pc c)
    ~step:(fun pc c -> fcm_step f pc c)
    (fun () -> f.fevicted)

(* Per-pc 2-bit chooser: >=2 prefers [a]. Starts neutral. The components
   are asked through [guess] and [train], never [step], so a component
   shared by both sides (or with another list entry) sees exactly the
   calls the unfused protocol would make. *)
let hybrid a b =
  let chooser = Pc_bytes.create ~width:1 '\002' in
  let ca = cell () and cb = cell () in
  (* The cell holding the guess the hybrid reports, given which components
     guessed; [Bytes.empty] when neither did. *)
  let chosen pc ga gb =
    if Pc_bytes.get chooser pc >= '\002' then
      if ga then ca else if gb then cb else Bytes.empty
    else if gb then cb
    else if ga then ca
    else Bytes.empty
  in
  (* Moves the chooser toward the component that was right about the value
     in [c], then trains both. *)
  let learn pc ga gb c =
    let v = get64 c 0 in
    let ha = ga && Int64.equal (get64 ca 0) v
    and hb = gb && Int64.equal (get64 cb 0) v in
    if ha <> hb then begin
      Pc_bytes.ensure chooser pc;
      let k = Char.code (Bytes.get chooser.b pc) in
      Bytes.set chooser.b pc
        (Char.chr (if ha then min conf_max (k + 1) else max 0 (k - 1)))
    end;
    a.train pc c;
    b.train pc c
  in
  let guess pc c =
    let ga = a.guess pc ca in
    let gb = b.guess pc cb in
    let src = chosen pc ga gb in
    src != Bytes.empty
    && (copy_cell ~src ~dst:c;
        true)
  in
  let train pc c =
    let ga = a.guess pc ca in
    let gb = b.guess pc cb in
    learn pc ga gb c
  in
  let step pc c =
    let ga = a.guess pc ca in
    let gb = b.guess pc cb in
    let src = chosen pc ga gb in
    let r =
      if src == Bytes.empty then none
      else if Int64.equal (get64 src 0) (get64 c 0) then right
      else wrong
    in
    learn pc ga gb c;
    r
  in
  make (Printf.sprintf "hybrid(%s,%s)" a.pname b.pname) ~guess ~train ~step
    (fun () -> a.pevictions () + b.pevictions ())

let perfect_last () =
  let values = Pc_bytes.create ~width:8 '\000' in
  let seen = Pc_bytes.create ~width:1 '\000' in
  let known pc = Pc_bytes.get seen pc <> '\000' in
  let train pc c =
    Pc_bytes.ensure values pc;
    Pc_bytes.ensure seen pc;
    Bytes.set seen.b pc '\001';
    set64 values.b (8 * pc) (get64 c 0)
  in
  make "perfect-last"
    ~guess:(fun pc c ->
      known pc
      && (set64 c 0 (get64 values.b (8 * pc));
          true))
    ~train
    ~step:(fun pc c ->
      let r =
        if not (known pc) then none
        else if Int64.equal (get64 values.b (8 * pc)) (get64 c 0) then right
        else wrong
      in
      train pc c;
      r)
    (fun () -> 0)

(* A byte per pc up to the profile's largest, [code] for the pcs it
   selects; pcs outside read as 0. *)
let pc_map (profile : Profile.t) code =
  let top =
    Array.fold_left (fun m (pt : Profile.point) -> max m pt.p_pc) (-1)
      profile.points
  in
  let map = Bytes.make (top + 1) '\000' in
  Array.iter
    (fun (pt : Profile.point) ->
      if pt.p_pc >= 0 then
        match code pt with 0 -> () | k -> Bytes.set map pt.p_pc (Char.chr k))
    profile.points;
  map

let[@inline] pc_code map pc =
  if pc < Bytes.length map then Char.code (Bytes.get map pc) else 0

let filtered ~profile ~threshold p =
  let allowed =
    pc_map profile (fun pt ->
        if pt.p_metrics.Metrics.inv_top >= threshold then 1 else 0)
  in
  make (Printf.sprintf "%s@inv>=%.0f%%" p.pname (100. *. threshold))
    ~guess:(fun pc c -> pc_code allowed pc = 1 && p.guess pc c)
    ~train:(fun pc c -> if pc_code allowed pc = 1 then p.train pc c)
    ~step:(fun pc c -> if pc_code allowed pc = 1 then p.step pc c else none)
    p.pevictions

let routed ?threshold ~profile ~last_value ~strided () =
  let route =
    pc_map profile (fun pt ->
        match Metrics.predictor_class ?threshold pt.p_metrics with
        | Metrics.Last_value -> 1
        | Metrics.Strided -> 2
        | Metrics.Unpredictable -> 0)
  in
  make (Printf.sprintf "routed(%s,%s)" last_value.pname strided.pname)
    ~guess:(fun pc c ->
      match pc_code route pc with
      | 1 -> last_value.guess pc c
      | 2 -> strided.guess pc c
      | _ -> false)
    ~train:(fun pc c ->
      match pc_code route pc with
      | 1 -> last_value.train pc c
      | 2 -> strided.train pc c
      | _ -> ())
    ~step:(fun pc c ->
      match pc_code route pc with
      | 1 -> last_value.step pc c
      | 2 -> strided.step pc c
      | _ -> none)
    (fun () -> last_value.pevictions () + strided.pevictions ())

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

(* One observer per selected pc drives every model from the same event
   stream; the counts live in the [live] record until [collect]. *)
type live = {
  machine : Machine.t;
  preds : t array;
  events : int ref;
  predicted : int array;
  correct : int array;
}

let attach ?(selection = `All) machine predictors =
  let preds = Array.of_list predictors in
  let n = Array.length preds in
  let events = ref 0 in
  let predicted = Array.make n 0 in
  let correct = Array.make n 0 in
  let value = cell () in
  List.iter
    (fun pc ->
      Machine.add_observer machine pc (fun () ->
          set64 value 0 (Machine.value machine);
          incr events;
          for i = 0 to n - 1 do
            let r = preds.(i).step pc value in
            if r <> none then begin
              predicted.(i) <- predicted.(i) + 1;
              if r = right then correct.(i) <- correct.(i) + 1
            end
          done))
    (Atom.select (Machine.program machine) selection);
  { machine; preds; events; predicted; correct }

let collect { preds; events; predicted; correct; _ } =
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

let simulate ?selection ?fuel prog predictors =
  let machine = Machine.create prog in
  let live = attach ?selection machine predictors in
  ignore (Machine.run ?fuel machine);
  collect live
