(** The instruction set of the virtual machine.

    A 32-register, 64-bit load/store RISC in the style of the DEC Alpha the
    paper instrumented: three-operand ALU instructions with a register or
    immediate second operand, displacement-addressed loads and stores,
    compare-and-branch, direct and indirect calls. Branch and call targets
    are absolute indices into the flat code array (the assembler resolves
    symbolic labels; see {!Vp_asm.Asm}). *)

(** Register number, [0..31]. Register 31 is hardwired to zero, as on the
    Alpha. *)
type reg = int

val num_regs : int

(** The hardwired zero register. *)
val zero_reg : reg

(** Calling convention (Alpha-flavoured):
    - [a0..a5] = r16..r21 hold the first six arguments,
    - [v0]     = r0 holds the return value,
    - [sp]     = r30 is the stack pointer,
    - r1..r15 are caller-saved temporaries. *)
val v0 : reg

val a0 : reg
val a1 : reg
val a2 : reg
val a3 : reg
val a4 : reg
val a5 : reg
val sp : reg

(** [t0..t7] = r1..r8, conventional scratch registers. *)
val t0 : reg
val t1 : reg
val t2 : reg
val t3 : reg
val t4 : reg
val t5 : reg
val t6 : reg
val t7 : reg

(** [s0..s5] = r9..r14, conventional saved registers (the machine does not
    enforce saving; the names only aid workload readability). *)
val s0 : reg
val s1 : reg
val s2 : reg
val s3 : reg
val s4 : reg
val s5 : reg

(** ALU operations. Shifts use the low 6 bits of the second operand;
    [Div]/[Rem] trap on zero divisors. Comparisons yield 1 or 0.
    [Cmpult] is the unsigned less-than. *)
type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Sll | Srl | Sra
  | Cmpeq | Cmplt | Cmple | Cmpult

(** Second ALU operand. *)
type operand = Reg of reg | Imm of int64

(** Branch conditions, applied to a single register compared against 0. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Op of binop * reg * operand * reg
      (** [Op (op, ra, ob, rc)]: [rc <- ra op ob]. *)
  | Ldi of reg * int64  (** Load immediate. *)
  | Ld of reg * reg * int
      (** [Ld (rd, rb, off)]: [rd <- mem\[rb + off\]] (word addressed). *)
  | St of reg * reg * int
      (** [St (ra, rb, off)]: [mem\[rb + off\] <- ra]. *)
  | Br of cond * reg * int
      (** [Br (c, ra, target)]: branch to [target] when [ra c 0]. *)
  | Jmp of int  (** Unconditional branch. *)
  | Jsr of int  (** Direct call; return address kept on the machine's call stack. *)
  | Jsr_ind of reg  (** Indirect call through a register holding a code index. *)
  | Ret
  | Halt
  | Nop

(** Coarse classification used to slice profile results the way the paper's
    tables do. *)
type category = Alu | Load | Store | Branch | Call | Return | Other

val category : instr -> category

(** The register an instruction writes, if any. Loads and ALU ops (and
    [Ldi]) produce values — these are the instructions the value profiler
    attaches TNV tables to. Writes to the zero register are reported as
    [None]. *)
val dest_reg : instr -> reg option

(** True when the instruction can redirect control flow. *)
val is_control : instr -> bool

(** Direct control-flow targets (branch/jump/call destinations); empty for
    indirect and non-control instructions. *)
val targets : instr -> int list

val string_of_reg : reg -> string
val string_of_cond : cond -> string

val to_string : instr -> string
