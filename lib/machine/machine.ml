type trap =
  | Div_by_zero of int
  | Invalid_pc of int
  | Call_depth_exceeded of int
  | Fuel_exhausted of int

exception Trap of trap

let string_of_trap = function
  | Div_by_zero pc -> Printf.sprintf "division by zero at pc %d" pc
  | Invalid_pc pc -> Printf.sprintf "invalid pc %d" pc
  | Call_depth_exceeded d -> Printf.sprintf "call depth exceeded (%d)" d
  | Fuel_exhausted f -> Printf.sprintf "fuel exhausted (%d instructions)" f

type hook = int64 -> int64 -> unit

let stack_base = 0x7F0_0000L
let max_call_depth = 100_000

(* Registers, memory pages and the value cell are raw bytes accessed
   through the bounds-checked native-endian primitives, so a word moves
   between them without being boxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type frame = { return_pc : int; frame_proc : int }

type t = {
  prog : Asm.program;
  regs : Bytes.t; (* Isa.num_regs words *)
  (* The value (bytes 0-7) and effective address (bytes 8-15) of the
     instruction whose observers are firing, written just before they
     fire and read back by [value]/[addr]. *)
  cell : Bytes.t;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  exec_counts : int array;
  mutable stack : frame list;
  mutable depth : int;
  proc_of : int array; (* pc -> proc index, -1 outside any proc *)
  (* What the interpreter dispatches through: at most one closure per
     point, so the hot path is the same single load + option test whether
     a point has zero, one, or many observers. With several observers the
     closure is a pre-built fan-out over a flat array (see [rebuild_hook]). *)
  hooks : (unit -> unit) option array;
  entry_hooks : (t -> unit) option array;
  return_hooks : (t -> int64 -> unit) option array;
  (* The actual subscriber lists (attach order), kept cold: only [add_*]
     and [hook_count] read them. *)
  hook_subs : (unit -> unit) list array;
  entry_subs : (t -> unit) list array;
  return_subs : (t -> int64 -> unit) list array;
  (* Open recording frame: while [Some], every subscription is also
     logged here so [with_attachment] can hand back a detachable record
     of exactly what one profiler installed. *)
  mutable recording : sub list option;
}

and sub =
  | S_hook of int * (unit -> unit)
  | S_entry of int * (t -> unit)
  | S_return of int * (t -> int64 -> unit)

type attachment = sub list

let build_proc_of (prog : Asm.program) =
  let proc_of = Array.make (Array.length prog.code) (-1) in
  Array.iter
    (fun (p : Asm.proc) ->
      for pc = p.pentry to p.pentry + p.plength - 1 do
        proc_of.(pc) <- p.pindex
      done)
    prog.procs;
  proc_of

let load_data t =
  List.iter (fun (base, words) -> Memory.load_segment t.mem base words) t.prog.data

let[@inline] reg t r = get64 t.regs (r lsl 3)

let[@inline] set_reg t r v = if r <> Isa.zero_reg then set64 t.regs (r lsl 3) v

let init_regs t =
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  set_reg t Isa.sp stack_base

let create prog =
  let t =
    { prog;
      regs = Bytes.make (8 * Isa.num_regs) '\000';
      cell = Bytes.make 16 '\000';
      mem = Memory.create ();
      pc = prog.entry;
      halted = false;
      icount = 0;
      exec_counts = Array.make (Array.length prog.code) 0;
      stack = [];
      depth = 0;
      proc_of = build_proc_of prog;
      hooks = Array.make (Array.length prog.code) None;
      entry_hooks = Array.make (Array.length prog.procs) None;
      return_hooks = Array.make (Array.length prog.procs) None;
      hook_subs = Array.make (Array.length prog.code) [];
      entry_subs = Array.make (Array.length prog.procs) [];
      return_subs = Array.make (Array.length prog.procs) [];
      recording = None }
  in
  init_regs t;
  load_data t;
  t

let reset t =
  init_regs t;
  Memory.clear t.mem;
  load_data t;
  t.pc <- t.prog.entry;
  t.halted <- false;
  t.icount <- 0;
  Array.fill t.exec_counts 0 (Array.length t.exec_counts) 0;
  t.stack <- [];
  t.depth <- 0

let program t = t.prog

let memory t = t.mem
let pc t = t.pc
let halted t = t.halted
let icount t = t.icount
let exec_count t pc = t.exec_counts.(pc)

let caller_pc t =
  match t.stack with
  | [] -> None
  | frame :: _ -> Some (frame.return_pc - 1)
(* Additive subscription. The first observer at a point is installed
   directly, so a singly-instrumented point dispatches straight to the
   profiler's closure — zero cost over the pre-fan-out machine. When a
   second (or later) observer attaches, the dispatcher is rebuilt as a
   loop over a flat array of the subscribers in attach order; the array
   is built here, at attach time, so firing never allocates. *)

let record t sub =
  match t.recording with
  | None -> ()
  | Some subs -> t.recording <- Some (sub :: subs)

let rebuild_hook t pc =
  match t.hook_subs.(pc) with
  | [] -> t.hooks.(pc) <- None
  | [ h ] -> t.hooks.(pc) <- Some h
  | hs ->
    let fs = Array.of_list hs in
    t.hooks.(pc) <-
      Some
        (fun () ->
          for i = 0 to Array.length fs - 1 do
            (Array.unsafe_get fs i) ()
          done)

let[@inline] value t = get64 t.cell 0
let[@inline] addr t = get64 t.cell 8

let add_observer t pc f =
  t.hook_subs.(pc) <- t.hook_subs.(pc) @ [ f ];
  record t (S_hook (pc, f));
  rebuild_hook t pc

(* The boxing adapter: the same dispatch, with the cell's contents handed
   over as (boxed) arguments. *)
let add_hook t pc (h : hook) =
  add_observer t pc (fun () -> h (value t) (addr t))

let clear_hook t pc =
  t.hooks.(pc) <- None;
  t.hook_subs.(pc) <- []

let clear_all_hooks t =
  Array.fill t.hooks 0 (Array.length t.hooks) None;
  Array.fill t.hook_subs 0 (Array.length t.hook_subs) []

let hook_count t pc = List.length t.hook_subs.(pc)

let rebuild_entry t i =
  match t.entry_subs.(i) with
  | [] -> t.entry_hooks.(i) <- None
  | [ h ] -> t.entry_hooks.(i) <- Some h
  | hs ->
    let fs = Array.of_list hs in
    t.entry_hooks.(i) <-
      Some
        (fun m ->
          for k = 0 to Array.length fs - 1 do
            (Array.unsafe_get fs k) m
          done)

let add_proc_entry_hook t i h =
  t.entry_subs.(i) <- t.entry_subs.(i) @ [ h ];
  record t (S_entry (i, h));
  rebuild_entry t i

let rebuild_return t i =
  match t.return_subs.(i) with
  | [] -> t.return_hooks.(i) <- None
  | [ h ] -> t.return_hooks.(i) <- Some h
  | hs ->
    let fs = Array.of_list hs in
    t.return_hooks.(i) <-
      Some
        (fun m v ->
          for k = 0 to Array.length fs - 1 do
            (Array.unsafe_get fs k) m v
          done)

let add_proc_return_hook t i h =
  t.return_subs.(i) <- t.return_subs.(i) @ [ h ];
  record t (S_return (i, h));
  rebuild_return t i

let with_attachment t f =
  (match t.recording with
   | Some _ -> invalid_arg "Machine.with_attachment: recording already open"
   | None -> ());
  t.recording <- Some [];
  match f () with
  | v ->
    let subs = match t.recording with Some s -> s | None -> [] in
    t.recording <- None;
    (v, subs)
  | exception e ->
    t.recording <- None;
    raise e

(* Remove the first physically-equal closure: the same function may be
   subscribed twice (two frames of the same profiler), and only the
   recorded instance must go. *)
let remove_first_phys x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest ->
      if y == x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] l

let detach t subs =
  List.iter
    (fun sub ->
      match sub with
      | S_hook (pc, h) ->
        t.hook_subs.(pc) <- remove_first_phys h t.hook_subs.(pc);
        rebuild_hook t pc
      | S_entry (i, h) ->
        t.entry_subs.(i) <- remove_first_phys h t.entry_subs.(i);
        rebuild_entry t i
      | S_return (i, h) ->
        t.return_subs.(i) <- remove_first_phys h t.return_subs.(i);
        rebuild_return t i)
    subs

let[@inline] eval_binop op pc a b =
  match op with
  | Isa.Add -> Int64.add a b
  | Isa.Sub -> Int64.sub a b
  | Isa.Mul -> Int64.mul a b
  | Isa.Div -> if Int64.equal b 0L then raise (Trap (Div_by_zero pc)) else Int64.div a b
  | Isa.Rem -> if Int64.equal b 0L then raise (Trap (Div_by_zero pc)) else Int64.rem a b
  | Isa.And -> Int64.logand a b
  | Isa.Or -> Int64.logor a b
  | Isa.Xor -> Int64.logxor a b
  | Isa.Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Isa.Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Isa.Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Isa.Cmpeq -> if Int64.equal a b then 1L else 0L
  | Isa.Cmplt -> if Int64.compare a b < 0 then 1L else 0L
  | Isa.Cmple -> if Int64.compare a b <= 0 then 1L else 0L
  | Isa.Cmpult -> if Int64.unsigned_compare a b < 0 then 1L else 0L

let[@inline] cond_holds c v =
  let s = Int64.compare v 0L in
  match c with
  | Isa.Eq -> s = 0
  | Isa.Ne -> s <> 0
  | Isa.Lt -> s < 0
  | Isa.Le -> s <= 0
  | Isa.Gt -> s > 0
  | Isa.Ge -> s >= 0

let check_pc t pc =
  if pc < 0 || pc >= Array.length t.prog.code then raise (Trap (Invalid_pc pc))

let enter_proc t target =
  check_pc t target;
  let callee = t.proc_of.(target) in
  if t.depth >= max_call_depth then raise (Trap (Call_depth_exceeded max_call_depth));
  t.stack <- { return_pc = t.pc + 1; frame_proc = callee } :: t.stack;
  t.depth <- t.depth + 1;
  t.pc <- target;
  if callee >= 0 then
    match t.entry_hooks.(callee) with None -> () | Some h -> h t

(* Deliver the per-pc dispatcher. Each [step] arm ends here with the value
   and address it produced (0L where the instruction has none). Zero
   observers cost one unsafe load plus an option test; otherwise the pair
   goes into the cell, unboxed, and the dispatcher (a single observer, or
   a pre-built fan-out over several; see [add_observer]) is called with
   no argument to box. [pc] was bounds-checked on entry to [step] and
   [hooks] matches the code array's length. *)
let[@inline] fire t pc v a =
  match Array.unsafe_get t.hooks pc with
  | None -> ()
  | Some f ->
    set64 t.cell 0 v;
    set64 t.cell 8 a;
    f ()

(* The [Op] operand is matched in two arms rather than bound with a [let]:
   a [let] over a match whose [Imm] arm is a boxed constant would itself
   be boxed, allocating on every register-operand step. *)
let step t =
  if t.halted then ()
  else begin
    let pc = t.pc in
    check_pc t pc;
    let instr = Array.unsafe_get t.prog.code pc in
    Array.unsafe_set t.exec_counts pc (Array.unsafe_get t.exec_counts pc + 1);
    t.icount <- t.icount + 1;
    match instr with
    | Isa.Op (op, ra, Isa.Reg rb, rc) ->
      let v = eval_binop op pc (reg t ra) (reg t rb) in
      set_reg t rc v;
      t.pc <- pc + 1;
      fire t pc v 0L
    | Isa.Op (op, ra, Isa.Imm b, rc) ->
      let v = eval_binop op pc (reg t ra) b in
      set_reg t rc v;
      t.pc <- pc + 1;
      fire t pc v 0L
    | Isa.Ldi (rd, v) ->
      set_reg t rd v;
      t.pc <- pc + 1;
      fire t pc v 0L
    | Isa.Ld (rd, rb, off) ->
      let a = Int64.add (reg t rb) (Int64.of_int off) in
      let v = Memory.read t.mem a in
      set_reg t rd v;
      t.pc <- pc + 1;
      fire t pc v a
    | Isa.St (ra, rb, off) ->
      let a = Int64.add (reg t rb) (Int64.of_int off) in
      let v = reg t ra in
      Memory.write t.mem a v;
      t.pc <- pc + 1;
      fire t pc v a
    | Isa.Br (c, ra, target) ->
      if cond_holds c (reg t ra) then begin
        t.pc <- target;
        fire t pc 1L 0L
      end
      else begin
        t.pc <- pc + 1;
        fire t pc 0L 0L
      end
    | Isa.Jmp target ->
      t.pc <- target;
      fire t pc 0L 0L
    | Isa.Jsr target ->
      enter_proc t target;
      fire t pc 0L 0L
    | Isa.Jsr_ind r ->
      let target = Int64.to_int (reg t r) in
      enter_proc t target;
      fire t pc 0L 0L
    | Isa.Ret ->
      let v = reg t Isa.v0 in
      (match t.stack with
       | [] -> t.halted <- true
       | frame :: rest ->
         (if frame.frame_proc >= 0 then
            match t.return_hooks.(frame.frame_proc) with
            | None -> ()
            | Some h -> h t v);
         t.stack <- rest;
         t.depth <- t.depth - 1;
         t.pc <- frame.return_pc);
      fire t pc v 0L
    | Isa.Halt ->
      t.halted <- true;
      fire t pc 0L 0L
    | Isa.Nop ->
      t.pc <- pc + 1;
      fire t pc 0L 0L
  end

let m_runs = Obs.Metrics.counter "machine.runs"
let m_steps = Obs.Metrics.counter "machine.steps"

let run ?(fuel = 500_000_000) t =
  (* counting down in a tail-recursive loop keeps the budget in a register
     instead of a heap-allocated ref dereferenced every instruction; the
     fault-injection flag is read once, so a fault-free run's loop carries
     only a perfectly-predicted register test per step. Observability sits
     entirely outside the loop: a span around the whole run and two
     counter adds after it, never per step. *)
  let faults = Fault.enabled () in
  (* Budget governance follows the same discipline as fault injection:
     the armed flag is read once, so an ungoverned loop pays nothing.
     Governed, the budget is polled on a periodic boundary (every 4096
     steps, when the fuel counter's low bits are clear) — cheap enough
     to be invisible, frequent enough that a deadline trips within
     fractions of a millisecond of real work. *)
  let governed = Budget.armed () in
  let start_icount = t.icount in
  let finish () =
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_steps (t.icount - start_icount)
  in
  Obs.Trace.begin_span ~cat:"machine" "machine.run";
  if governed then Budget.poll ();
  let rec loop remaining =
    if not t.halted then
      if remaining <= 0 then raise (Trap (Fuel_exhausted fuel))
      else begin
        if faults then Fault.point ~site:"machine.step";
        if governed && remaining land 4095 = 0 then Budget.poll ();
        step t;
        loop (remaining - 1)
      end
  in
  (match loop fuel with
   | () -> ()
   | exception e ->
     finish ();
     Obs.Trace.end_span ~cat:"machine" "machine.run";
     raise e);
  finish ();
  Obs.Trace.end_span ~cat:"machine" "machine.run";
  t.icount

let execute ?fuel prog =
  let t = create prog in
  ignore (run ?fuel t);
  t
