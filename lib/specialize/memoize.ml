type report = {
  m_proc : string;
  m_arity : int;
  m_entries : int;
  m_table_base : int64;
  m_wrapper_entry : int;
  m_program : Asm.program;
}

let arg_regs = [| Isa.a0; Isa.a1; Isa.a2; Isa.a3; Isa.a4; Isa.a5 |]

let check_entry_not_branch_target (prog : Asm.program) entry =
  Array.iter
    (fun instr ->
      match instr with
      | Isa.Br (_, _, t) | Isa.Jmp t ->
        if t = entry then
          raise
            (Body.Unsupported "memoize: procedure entry is also a branch target")
      | _ -> ())
    prog.code

let next_free_data_address (prog : Asm.program) =
  List.fold_left
    (fun acc (base, words) ->
      let past = Int64.add base (Int64.of_int (Array.length words)) in
      if Int64.compare past acc > 0 then past else acc)
    0x1_0000L prog.data

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The wrapper, built as a Body with local control flow; [trampoline] is
   the absolute pc of the displaced-first-instruction stub. Uses only
   t-registers, legal because the wrapper runs as the callee. *)
let wrapper_body ~arity ~entries ~line_words ~table_base ~trampoline =
  let open Body in
  let open Isa in
  let code = ref [] in
  let emit i = code := i :: !code in
  let here () = List.length !code in
  (* h = fold of args, in t0 *)
  emit (BOp (Add, arg_regs.(0), Imm 0L, t0));
  for i = 1 to arity - 1 do
    emit (BOp (Mul, t0, Imm 131L, t0));
    emit (BOp (Add, t0, Reg arg_regs.(i), t0))
  done;
  emit (BOp (And, t0, Imm (Int64.of_int (entries - 1)), t0));
  emit (BOp (Mul, t0, Imm (Int64.of_int line_words), t0));
  emit (BLdi (t2, table_base));
  emit (BOp (Add, t2, Reg t0, t1)); (* t1 = line address *)
  (* the misses branch forward to a label we only know at the end; record
     the indices to patch *)
  let miss_patches = ref [] in
  let branch_to_miss cond reg =
    miss_patches := here () :: !miss_patches;
    emit (BBr (cond, reg, Local (-1)))
  in
  emit (BLd (t3, t1, 0)); (* occupied tag *)
  branch_to_miss Eq t3;
  for i = 0 to arity - 1 do
    emit (BLd (t4, t1, 1 + i));
    emit (BOp (Sub, t4, Reg arg_regs.(i), t5));
    branch_to_miss Ne t5
  done;
  (* hit *)
  emit (BLd (v0, t1, 1 + arity));
  emit BRet;
  let miss = here () in
  (* spill the line address and the arguments across the call *)
  let frame = arity + 1 in
  emit (BOp (Sub, sp, Imm (Int64.of_int frame), sp));
  emit (BSt (t1, sp, 0));
  for i = 0 to arity - 1 do
    emit (BSt (arg_regs.(i), sp, 1 + i))
  done;
  emit (BJsr (Global trampoline));
  emit (BLd (t1, sp, 0));
  emit (BLdi (t2, 1L));
  emit (BSt (t2, t1, 0));
  for i = 0 to arity - 1 do
    emit (BLd (t3, sp, 1 + i));
    emit (BSt (t3, t1, 1 + i))
  done;
  emit (BSt (v0, t1, 1 + arity));
  emit (BOp (Add, sp, Imm (Int64.of_int frame), sp));
  emit BRet;
  let body = Array.of_list (List.rev !code) in
  List.iter
    (fun idx ->
      match body.(idx) with
      | BBr (c, r, Local _) -> body.(idx) <- BBr (c, r, Local miss)
      | _ -> assert false)
    !miss_patches;
  body

let memoize ?(entries = 256) (prog : Asm.program) ~proc ~arity =
  if arity < 1 || arity > Array.length arg_regs then
    invalid_arg "Memoize: arity out of range";
  if not (is_power_of_two entries) then
    invalid_arg "Memoize: entries must be a power of two";
  let p = Asm.find_proc prog proc in
  if p.plength < 2 then raise (Body.Unsupported "memoize: procedure too short");
  check_entry_not_branch_target prog p.pentry;
  let line_words = arity + 2 in
  let table_base = next_free_data_address prog in
  let old_len = Array.length prog.code in
  let trampoline = old_len in
  let wrapper_entry = trampoline + 2 in
  let displaced = prog.code.(p.pentry) in
  let stub = [| displaced; Isa.Jmp (p.pentry + 1) |] in
  let wrapper =
    Body.relocate
      (wrapper_body ~arity ~entries ~line_words ~table_base ~trampoline)
      ~base:wrapper_entry
  in
  let code = Array.concat [ Array.copy prog.code; stub; wrapper ] in
  code.(p.pentry) <- Isa.Jmp wrapper_entry;
  let n_procs = Array.length prog.procs in
  let procs =
    Array.append prog.procs
      [| { Asm.pname = proc ^ "__memo"; pentry = trampoline;
           plength = 2 + Array.length wrapper; pindex = n_procs } |]
  in
  let data =
    prog.data @ [ (table_base, Array.make (entries * line_words) 0L) ]
  in
  { m_proc = proc;
    m_arity = arity;
    m_entries = entries;
    m_table_base = table_base;
    m_wrapper_entry = wrapper_entry;
    m_program = { prog with Asm.code; procs; data } }

let mix addr v =
  let h = Int64.mul (Int64.logxor addr 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L in
  Int64.mul (Int64.logxor h v) 0x94D049BB133111EBL

(* The stack region is excluded along with the cache: the wrapper's spill
   slots leave residue below the restored stack pointer, which is not
   meaningful program output for either version. *)
let stack_region = 0x700_0000L

let checksum_excluding m ~lo ~hi =
  let acc = ref (Machine.reg m Isa.v0) in
  Memory.iter_touched (Machine.memory m) (fun addr v ->
      let in_cache = Int64.compare addr lo >= 0 && Int64.compare addr hi < 0 in
      let in_stack = Int64.compare addr stack_region >= 0 in
      if (not in_cache) && (not in_stack) && not (Int64.equal v 0L) then
        acc := Int64.add !acc (mix addr v));
  !acc

let differential ?fuel ?original prog report =
  let lo = report.m_table_base in
  let hi =
    Int64.add lo
      (Int64.of_int (report.m_entries * (report.m_arity + 2)))
  in
  (* the stack red zone the wrapper uses is restored, so it never differs *)
  let m1 =
    match original with Some m -> m | None -> Machine.execute ?fuel prog
  in
  let m2 = Machine.execute ?fuel report.m_program in
  ( Int64.equal (checksum_excluding m1 ~lo ~hi) (checksum_excluding m2 ~lo ~hi),
    Machine.icount m1,
    Machine.icount m2 )
