(** Procedure memoization, after Richardson [32] (§IV.C.4): "keeping a
    memoization cache of recently executed function results with their
    inputs". The procedure profile identifies candidates (procedures whose
    argument tuples recur — {!Procprof.proc_report.r_memo_hits}); this
    transform installs the cache.

    The rewrite is append-only, like {!Specialize.specialize}: the
    procedure's first instruction is displaced into a trampoline and its
    entry becomes a jump to a wrapper that probes a direct-mapped cache in
    a freshly reserved memory region. Each cache line holds an occupied
    tag, the argument tuple (compared exactly), and the stored result. On
    a hit the stored result returns immediately; on a miss the wrapper
    calls the original body through the trampoline, then fills the line.

    Soundness requirements (the transform cannot check them; the
    differential harness will expose violations):
    - the procedure must be {e pure modulo read-only memory}: its result
      depends only on its arguments and memory that does not change while
      the program runs, and it has no observable side effects;
    - the usual calling convention (only [v0], [sp], callee-saved
      registers observable to the caller).

    Raises {!Body.Unsupported} under the same structural conditions as
    the specializer (entry is a branch target, body too short). *)

type report = {
  m_proc : string;
  m_arity : int;  (** arguments hashed and compared, 1..6 *)
  m_entries : int;  (** cache lines *)
  m_table_base : int64;  (** reserved memory region *)
  m_wrapper_entry : int;
  m_program : Asm.program;
}

val memoize :
  ?entries:int (** cache lines, a power of two; default 256 *) ->
  Asm.program ->
  proc:string ->
  arity:int ->
  report

(** Run both programs, compare [v0] and memory {e outside} the cache
    region and the stack region (the cache legitimately differs; the
    wrapper's restored spill slots leave residue below the stack pointer
    that is not program output). Returns
    [(equal, icount_original, icount_memoized)]. [original], a machine
    that has already run the original program to completion, stands in
    for its run. *)
val differential :
  ?fuel:int -> ?original:Machine.t -> Asm.program -> report -> bool * int * int
