(* In-memory span recorder for the traced run. Spans are recorded by the
   benchmark around its own calls into each layer's public functions —
   name, layer (the Chrome category), start, end, parent span and op id —
   and written out only when the run ends, as Chrome trace_event JSON. *)

type span = {
  id : int;
  name : string;
  cat : string;
  parent : int;  (** -1 at top level *)
  op : int;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false

let recorded : span list ref = ref [] (* newest first *)

let open_spans : span list ref = ref []

let next_id = ref 0

let current_op = ref 0

let set_op n = current_op := n

(* [with_span ~cat name f] is [f ()] when tracing is off. *)
let with_span ~cat name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; cat; parent; op = !current_op; t0 = Common.now ();
        t1 = nan }
    in
    incr next_id;
    recorded := s :: !recorded;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Common.now ();
        open_spans := List.tl !open_spans)
      f
  end

let spans () = List.rev !recorded

let children () =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add tbl s.parent s) (spans ());
  (* Hashtbl.find_all returns the newest binding first *)
  fun id -> List.rev (Hashtbl.find_all tbl id)

(* Self time of each layer: a span's duration minus the part its child
   spans cover, summed per category, in seconds. *)
let self_time () =
  let kids = children () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered =
        List.fold_left (fun acc c -> acc +. (c.t1 -. c.t0)) 0. (kids s.id)
      in
      let prev = Option.value (Hashtbl.find_opt tbl s.cat) ~default:0. in
      Hashtbl.replace tbl s.cat (prev +. (s.t1 -. s.t0 -. covered)))
    (spans ());
  fun cat -> Option.value (Hashtbl.find_opt tbl cat) ~default:0.

(* Begin/end pairs in nesting order (a depth-first walk of the span
   tree), so the file passes the repository's own trace checker. *)
let to_json () =
  let kids = children () in
  let epoch = match spans () with s :: _ -> s.t0 | [] -> 0. in
  let event s ph ts =
    Obs.Json.(
      Obj
        [ ("name", Str s.name); ("cat", Str s.cat); ("ph", Str ph);
          ("ts", Num ((ts -. epoch) *. 1e6)); ("pid", Num 1.); ("tid", Num 1.);
          ( "args",
            Obj
              [ ("id", Num (float s.id)); ("parent", Num (float s.parent));
                ("op", Num (float s.op)) ] ) ])
  in
  let rec walk acc s =
    let acc = event s "B" s.t0 :: acc in
    let acc = List.fold_left walk acc (kids s.id) in
    event s "E" s.t1 :: acc
  in
  let events = List.rev (List.fold_left walk [] (kids (-1))) in
  Obs.Json.(Obj [ ("traceEvents", List events) ])

let write_chrome path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Json.to_string (to_json ())))
