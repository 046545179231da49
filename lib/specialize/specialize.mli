(** Code specialization on a semi-invariant procedure parameter (Ch. X).

    Given a value profile showing that procedure [p]'s parameter is
    semi-invariant with dominant value [v], {!specialize} builds a new
    program containing a specialized clone of [p] optimized under the
    assumption [param = v] (constant propagation, branch resolution, dead
    code elimination, compaction) and a guard at [p]'s entry that
    dispatches to the clone when the assumption holds and to the original
    body otherwise — the paper's "selection mechanism based on the
    invariant variable".

    Mechanics: the original program's code is never shifted (so every
    absolute target, including indirect-call tables, stays valid); the
    procedure's first instruction is displaced into an appended guard
    trampoline. Register [r15] is reserved as the guard's scratch register
    — workload code must not use it. Raises {!Body.Unsupported} when the
    procedure entry is also a branch target (re-dispatching mid-loop would
    be wrong), when the procedure has fewer than two instructions, or when
    a branch leaves the procedure. *)

type report = {
  sp_proc : string;
  sp_param : Isa.reg;
  sp_value : int64;
  sp_static_before : int;  (** instructions in the original body *)
  sp_static_after : int;  (** instructions in the specialized clone *)
  sp_folded : int;
  sp_branches_resolved : int;
  sp_dead_removed : int;
  sp_guard_entry : int;  (** pc of the guard trampoline *)
  sp_spec_entry : int;  (** pc of the specialized body *)
  sp_program : Asm.program;  (** the rewritten program *)
}

val specialize :
  Asm.program -> proc:string -> param:Isa.reg -> value:int64 -> report

(** [candidates profile arities ~min_calls ~min_inv] — (procedure,
    parameter register, dominant value, Inv-Top) tuples worth specializing,
    from a procedure profile: parameters of procedures called at least
    [min_calls] times whose invariance reaches [min_inv]. Sorted by call
    count, descending. *)
val candidates :
  Procprof.t ->
  min_calls:int ->
  min_inv:float ->
  (string * Isa.reg * int64 * float) list

(** Differential harness: run both programs and compare final state
    ([v0] and a memory checksum). Returns [(equal, icount_original,
    icount_specialized)]. [original], a machine that has already run the
    original program to completion, stands in for its run. *)
val differential :
  ?fuel:int ->
  ?original:Machine.t ->
  Asm.program ->
  Asm.program ->
  bool * int * int
