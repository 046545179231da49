(** The virtual machine: executes an assembled {!Vp_asm.Asm.program} and
    exposes the instrumentation points the ATOM-like layer builds on.

    Instrumentation model (mirroring what ATOM's analysis routines could
    observe on the Alpha):
    - a per-PC {e after-execution} observer, which reads the value the
      instruction produced (ALU result, loaded word, or stored word) and,
      for memory instructions, the effective address through {!value} and
      {!addr};
    - a per-procedure {e entry} hook, fired when a call lands on the
      procedure, with the machine visible so argument registers can be read;
    - a per-procedure {e return} hook, fired at [Ret], with the value of
      [v0].

    Values reach per-PC observers through a 16-byte cell per machine:
    just before an instrumented instruction's observers fire, the machine
    writes the value and address there, and {!value}/{!addr} read them
    back unboxed. An observer is a [unit -> unit] closure
    ({!add_observer}), so neither the call nor the hand-over allocates.
    {!add_hook} is a boxing adapter over the same dispatch for observers
    written as [value -> addr -> unit] functions; each event then boxes
    both arguments.

    Subscription is {e additive}: every [add_*] call attaches one more
    observer to the point; observers at the same point fire in attach
    order. A point with a single observer costs one load, one option
    test and one call; several observers dispatch through a fan-out
    closure built at attach time that loops over a flat array — still
    one load on the hot path, and never an allocation while the machine
    runs.

    Registers and memory pages are raw bytes, so uninstrumented
    execution allocates nothing per instruction except call frames
    ([Jsr]). *)

type trap =
  | Div_by_zero of int  (** pc *)
  | Invalid_pc of int
  | Call_depth_exceeded of int  (** depth limit *)
  | Fuel_exhausted of int  (** fuel that was granted *)

exception Trap of trap

val string_of_trap : trap -> string

type t

(** Per-PC hook for {!add_hook}: [f value addr], with {!value} and
    {!addr} as arguments. *)
type hook = int64 -> int64 -> unit

(** Initial value of the stack pointer register on [create]/[reset];
    workload stacks grow downward from here. *)
val stack_base : int64

(** Maximum call-stack depth before [Call_depth_exceeded]. *)
val max_call_depth : int

(** Fresh machine with data segments loaded, registers zeroed (except
    [sp]), and [pc] at the program entry. *)
val create : Asm.program -> t

(** Return to the post-[create] state: registers, memory, counters, and pc
    reset. Hooks are {e kept} (profilers reset themselves). *)
val reset : t -> unit

val program : t -> Asm.program
val reg : t -> Isa.reg -> int64
val set_reg : t -> Isa.reg -> int64 -> unit
val memory : t -> Memory.t

val pc : t -> int
val halted : t -> bool

(** Dynamic instructions executed since the last [create]/[reset]. *)
val icount : t -> int

(** Times the instruction at a given pc has executed. *)
val exec_count : t -> int -> int

(** PC of the call instruction that created the current frame, if any —
    available inside procedure-entry hooks, where it identifies the call
    site (context-sensitive profiling uses it). *)
val caller_pc : t -> int option

(** Inside a per-PC observer: the value the instruction produced (0 for
    instructions that produce none; 1 or 0 for a taken or untaken branch).
    Meaningless outside an observer. *)
val value : t -> int64

(** Inside a per-PC observer: the effective address of a load or store
    (0 for other instructions). *)
val addr : t -> int64

(** [add_observer t pc f] subscribes one more per-PC observer at [pc];
    earlier observers keep firing (in attach order, before [f]). [f]
    reads the event through {!value} and {!addr}. *)
val add_observer : t -> int -> (unit -> unit) -> unit

(** [add_hook t pc h] is [add_observer t pc (fun () -> h (value t) (addr t))]:
    the boxing form, for observers that want the pair as arguments. *)
val add_hook : t -> int -> hook -> unit

(** Remove {e every} observer at the pc. *)
val clear_hook : t -> int -> unit

val clear_all_hooks : t -> unit

(** Observers currently subscribed at a pc (0 when uninstrumented). *)
val hook_count : t -> int -> int

(** Subscribe an entry observer on a procedure (additive, like
    {!add_observer}). *)
val add_proc_entry_hook : t -> int -> (t -> unit) -> unit

(** Hook invoked as [f machine return_value] whenever the given procedure
    executes [Ret]. Additive, like {!add_observer}. *)
val add_proc_return_hook : t -> int -> (t -> int64 -> unit) -> unit

(** Everything one profiler subscribed during a {!with_attachment} frame,
    detachable as a unit with {!detach}. *)
type attachment

(** [with_attachment t f] runs [f] with a recording frame open on [t]:
    every hook subscribed inside (per-PC, entry, return) is logged, and
    the log is returned alongside [f]'s result. Frames do not nest —
    [Invalid_argument] if one is already open. This is how fused runs
    remember which subscriptions belong to which member, so degradation
    can shed exactly one member mid-run. *)
val with_attachment : t -> (unit -> 'a) -> 'a * attachment

(** [detach t a] unsubscribes every hook recorded in [a] (matching by
    physical equality, so an identical closure subscribed by someone else
    survives) and rebuilds the affected dispatchers. Other observers at
    the same points keep firing; the detached profiler's accumulated
    state is untouched and can still be collected — a profile from
    partial observation. *)
val detach : t -> attachment -> unit

(** Execute one instruction. Raises {!Trap}; no-op once halted. *)
val step : t -> unit

(** [run ?fuel t] steps until the program halts (via [Halt] or a [Ret]
    with an empty call stack), returning the total {!icount}. Raises
    [Trap (Fuel_exhausted _)] after [fuel] instructions (default
    [500_000_000]).

    Carries the ["machine.step"] fault-injection site (see {!Fault}):
    when that site is armed, the armed step raises [Fault.Injected]
    mid-run — how tests simulate a worker crashing inside a job.

    When a {!Budget} is armed, the loop additionally polls it on a
    periodic boundary (every 4096 steps), so governed runs trip
    deadlines, take degradation steps, or raise on memory pressure
    cooperatively — between steps, with spans closed and telemetry
    intact. Ungoverned runs pay one atomic load for the whole run. *)
val run : ?fuel:int -> t -> int

(** Convenience: [create], [run], and return the machine (for examples and
    tests). *)
val execute : ?fuel:int -> Asm.program -> t
