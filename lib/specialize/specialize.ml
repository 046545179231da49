type report = {
  sp_proc : string;
  sp_param : Isa.reg;
  sp_value : int64;
  sp_static_before : int;
  sp_static_after : int;
  sp_folded : int;
  sp_branches_resolved : int;
  sp_dead_removed : int;
  sp_guard_entry : int;
  sp_spec_entry : int;
  sp_program : Asm.program;
}

let guard_reg = 15

(* Drop BNop instructions, remapping local targets to the next retained
   instruction at or after the old target. *)
let compact (body : Body.t) : Body.t =
  let n = Array.length body in
  let keep = Array.map (fun i -> i <> Body.BNop) body in
  (* new_index.(i) = position of the next retained instruction >= i. *)
  let new_index = Array.make (n + 1) 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    new_index.(i) <- !count;
    if keep.(i) then incr count
  done;
  new_index.(n) <- !count;
  let remap = function
    | Body.Local t ->
      if new_index.(t) >= !count then
        raise (Body.Unsupported "compact: branch target past the end of the body");
      Body.Local new_index.(t)
    | Body.Global _ as g -> g
  in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then begin
      let instr =
        match body.(i) with
        | Body.BBr (c, r, t) -> Body.BBr (c, r, remap t)
        | Body.BJmp t -> Body.BJmp (remap t)
        | Body.BJsr t -> Body.BJsr (remap t)
        | other -> other
      in
      out := instr :: !out
    end
  done;
  Array.of_list !out

let check_entry_not_branch_target (prog : Asm.program) entry =
  Array.iter
    (fun instr ->
      match instr with
      | Isa.Br (_, _, t) | Isa.Jmp t ->
        if t = entry then
          raise
            (Body.Unsupported
               "specialize: procedure entry is also a branch target")
      | _ -> ())
    prog.code

let specialize (prog : Asm.program) ~proc ~param ~value =
  let p = Asm.find_proc prog proc in
  if p.plength < 2 then
    raise (Body.Unsupported "specialize: procedure too short");
  if param = Isa.zero_reg || param = guard_reg then
    invalid_arg "Specialize: cannot specialize on this register";
  check_entry_not_branch_target prog p.pentry;
  let body = Body.extract prog p in
  (* The specialized clone: fold under [param = value], then clean up. *)
  let entry = Constfold.entry_env [ (param, value) ] in
  let folded_body, fstats = Constfold.fold body ~entry in
  let deadless, dead_removed = Liveness.eliminate_dead folded_body in
  let spec_body = compact deadless in
  (* Layout: original code (entry instruction hijacked), guard trampoline,
     specialized body. *)
  let old_len = Array.length prog.code in
  let guard_entry = old_len in
  let spec_entry = guard_entry + 4 in
  let displaced = prog.code.(p.pentry) in
  let guard =
    [| Isa.Op (Isa.Cmpeq, param, Isa.Imm value, guard_reg);
       Isa.Br (Isa.Ne, guard_reg, spec_entry);
       displaced;
       Isa.Jmp (p.pentry + 1) |]
  in
  (* If the displaced instruction already diverted control (Ret, Jmp, ...),
     the trailing Jmp is unreachable and harmless. *)
  let spec_code = Body.relocate spec_body ~base:spec_entry in
  let code = Array.concat [ Array.copy prog.code; guard; spec_code ] in
  code.(p.pentry) <- Isa.Jmp guard_entry;
  let n_procs = Array.length prog.procs in
  let procs =
    Array.append prog.procs
      [| { Asm.pname = proc ^ "__guard"; pentry = guard_entry; plength = 4;
           pindex = n_procs };
         { Asm.pname = proc ^ "__spec"; pentry = spec_entry;
           plength = Array.length spec_code; pindex = n_procs + 1 } |]
  in
  let sp_program = { prog with Asm.code; procs } in
  { sp_proc = proc;
    sp_param = param;
    sp_value = value;
    sp_static_before = p.plength;
    sp_static_after = Array.length spec_code;
    sp_folded = fstats.Constfold.folded;
    sp_branches_resolved = fstats.Constfold.branches_resolved;
    sp_dead_removed = dead_removed;
    sp_guard_entry = guard_entry;
    sp_spec_entry = spec_entry;
    sp_program }

let arg_regs = [| Isa.a0; Isa.a1; Isa.a2; Isa.a3; Isa.a4; Isa.a5 |]

let candidates (pp : Procprof.t) ~min_calls ~min_inv =
  let acc = ref [] in
  Array.iter
    (fun (r : Procprof.proc_report) ->
      if r.r_calls >= min_calls then
        Array.iteri
          (fun i (m : Metrics.t) ->
            if m.inv_top >= min_inv && Array.length m.top_values > 0 then begin
              let value, _count = m.top_values.(0) in
              acc := (r.r_name, arg_regs.(i), value, m.inv_top) :: !acc
            end)
          r.r_params)
    pp.procs;
  (* procs arrive sorted by call count already; keep that order. *)
  List.rev !acc

let mix addr v =
  let h = Int64.mul (Int64.logxor addr 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L in
  Int64.mul (Int64.logxor h v) 0x94D049BB133111EBL

let state_checksum m =
  let acc = ref (Machine.reg m Isa.v0) in
  Memory.iter_touched (Machine.memory m) (fun addr v ->
      if not (Int64.equal v 0L) then acc := Int64.add !acc (mix addr v));
  !acc

let differential ?fuel ?original prog specialized =
  let m1 =
    match original with Some m -> m | None -> Machine.execute ?fuel prog
  in
  let m2 = Machine.execute ?fuel specialized in
  ( Int64.equal (state_checksum m1) (state_checksum m2),
    Machine.icount m1,
    Machine.icount m2 )
