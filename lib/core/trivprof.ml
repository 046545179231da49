type t = {
  alu_events : int;
  measured : int;
  trivial_imm : int;
  trivial_dyn : int;
  by_kind : (string * int) list;
  dynamic_instructions : int;
  stats : Counters.t;
}

let trivial_fraction t =
  if t.measured = 0 then 0.
  else float_of_int (t.trivial_imm + t.trivial_dyn) /. float_of_int t.measured

type live = {
  machine : Machine.t;
  mutable alu_events : int;
  mutable measured : int;
  mutable trivial_imm : int;
  mutable trivial_dyn : int;
  kinds : (string, int ref) Hashtbl.t;
  started : float;
}

(* The kind of triviality, if any, for [a op b]. *)
let classify op a b =
  let open Isa in
  match op with
  | Add | Sub ->
    if Int64.equal b 0L then Some "add/sub 0"
    else if op = Add && Int64.equal a 0L then Some "add/sub 0"
    else None
  | Mul ->
    if Int64.equal a 0L || Int64.equal b 0L then Some "mul by 0/1"
    else if Int64.equal a 1L || Int64.equal b 1L then Some "mul by 0/1"
    else None
  | Div | Rem -> if Int64.equal b 1L then Some "div/rem by 1" else None
  | And ->
    if Int64.equal a 0L || Int64.equal b 0L then Some "and 0/-1"
    else if Int64.equal a (-1L) || Int64.equal b (-1L) then Some "and 0/-1"
    else None
  | Or | Xor ->
    if Int64.equal a 0L || Int64.equal b 0L then Some "or/xor 0" else None
  | Sll | Srl | Sra ->
    if Int64.equal (Int64.logand b 63L) 0L then Some "shift by 0" else None
  | Cmpeq | Cmplt | Cmple | Cmpult -> None

let is_arith = function
  | Isa.Add | Isa.Sub | Isa.Mul | Isa.Div | Isa.Rem | Isa.And | Isa.Or
  | Isa.Xor | Isa.Sll | Isa.Srl | Isa.Sra -> true
  | Isa.Cmpeq | Isa.Cmplt | Isa.Cmple | Isa.Cmpult -> false

let record live kind imm =
  (if imm then live.trivial_imm <- live.trivial_imm + 1
   else live.trivial_dyn <- live.trivial_dyn + 1);
  match Hashtbl.find_opt live.kinds kind with
  | Some r -> incr r
  | None -> Hashtbl.replace live.kinds kind (ref 1)

let attach machine =
  let live =
    { machine; alu_events = 0; measured = 0; trivial_imm = 0; trivial_dyn = 0;
      kinds = Hashtbl.create 8; started = Counters.now () }
  in
  let prog = Machine.program machine in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Isa.Op (op, ra, operand, rc) when is_arith op ->
        let sources_survive =
          rc <> ra
          && (match operand with Isa.Reg rb -> rc <> rb | Isa.Imm _ -> true)
        in
        if sources_survive then
          Machine.add_observer machine pc (fun () ->
              live.alu_events <- live.alu_events + 1;
              live.measured <- live.measured + 1;
              let a = Machine.reg machine ra in
              let b, imm =
                match operand with
                | Isa.Reg rb -> (Machine.reg machine rb, false)
                | Isa.Imm v -> (v, true)
              in
              match classify op a b with
              | Some kind -> record live kind imm
              | None -> ())
        else
          Machine.add_observer machine pc (fun () ->
              live.alu_events <- live.alu_events + 1)
      | _ -> ())
    prog.Asm.code;
  live

let collect live =
  let by_kind =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) live.kinds []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let stats = Counters.create () in
  stats.Counters.events_seen <- live.alu_events;
  stats.Counters.events_profiled <- live.measured;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { alu_events = live.alu_events;
    measured = live.measured;
    trivial_imm = live.trivial_imm;
    trivial_dyn = live.trivial_dyn;
    by_kind;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?fuel prog =
  let machine = Machine.create prog in
  let live = attach machine in
  ignore (Machine.run ?fuel machine);
  collect live

module Profiler = Profiler_intf.Make (struct
  let name = "trivial"

  type config = unit

  let default_config = ()

  type result = t
  type nonrec live = live

  let attach () machine = attach machine
  let collect = collect
  let stats (r : result) = r.stats
  let dynamic_instructions (r : result) = r.dynamic_instructions

  let summary (t : result) =
    Printf.sprintf "%s ALU events, %.2f%% trivial" (Table.count t.alu_events)
      (100. *. trivial_fraction t)
end)
