let page_shift = 12
let page_words = 1 lsl page_shift (* 4096 *)
let page_mask = page_words - 1
let page_bytes = page_words * 8

(* Pages are raw bytes read and written through the bounds-checked
   native-endian primitives, so a word moves between memory and a
   register without being boxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* [last_key]/[last_page] cache the most recently touched page so the
   common sequential/looping access pattern costs one compare instead of a
   hashtable probe per access. [no_page] never equals a real key (keys are
   non-negative). *)
let no_page = min_int

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_key : int;
  mutable last_page : Bytes.t;
}

let create () =
  { pages = Hashtbl.create 64; last_key = no_page; last_page = Bytes.empty }

(* What an unwritten page reads as. Shared and never written: reads of a
   missing page return it without allocating or caching it. *)
let zero_page = Bytes.make page_bytes '\000'

(* For a non-negative address, [Int64.to_int] keeps its low 63 bits, and
   [lsr]/[land] on those bits give exactly the 64-bit page number and
   offset, wrapped addresses at or above 2^62 included. *)
let[@inline] key_of a = a lsr page_shift
let[@inline] byte_off a = (a land page_mask) lsl 3

let check addr what =
  if Int64.compare addr 0L < 0 then invalid_arg ("Memory." ^ what ^ ": negative address")

(* The slow paths return the page rather than the word, so the inlined
   fast paths below stay free of boxed results. *)
let read_page t addr =
  check addr "read";
  let key = key_of (Int64.to_int addr) in
  match Hashtbl.find_opt t.pages key with
  | None -> zero_page
  | Some page ->
    t.last_key <- key;
    t.last_page <- page;
    page

let write_page t addr =
  check addr "write";
  let key = key_of (Int64.to_int addr) in
  let page =
    match Hashtbl.find_opt t.pages key with
    | Some page -> page
    | None ->
      let page = Bytes.make page_bytes '\000' in
      Hashtbl.replace t.pages key page;
      page
  in
  t.last_key <- key;
  t.last_page <- page;
  page

let[@inline] read t addr =
  let a = Int64.to_int addr in
  let page =
    if Int64.compare addr 0L >= 0 && key_of a = t.last_key then t.last_page
    else read_page t addr
  in
  get64 page (byte_off a)

let[@inline] write t addr v =
  let a = Int64.to_int addr in
  let page =
    if Int64.compare addr 0L >= 0 && key_of a = t.last_key then t.last_page
    else write_page t addr
  in
  set64 page (byte_off a) v

let load_segment t base words =
  Array.iteri (fun i v -> write t (Int64.add base (Int64.of_int i)) v) words

let pages_allocated t = Hashtbl.length t.pages

let iter_touched t f =
  Hashtbl.iter
    (fun key page ->
      let base = Int64.mul (Int64.of_int key) (Int64.of_int page_words) in
      for i = 0 to page_words - 1 do
        f (Int64.add base (Int64.of_int i)) (get64 page (i lsl 3))
      done)
    t.pages

let clear t =
  Hashtbl.reset t.pages;
  t.last_key <- no_page;
  t.last_page <- Bytes.empty
