(** Hardware value-predictor models (§II.A and Chapter IX context).

    The thesis motivates value profiling with value prediction [17,27,28]:
    a Value History Table indexed by PC predicts an instruction's next
    output. This module implements the standard models — last-value (LVP),
    stride, finite-context (2-level), and hybrids — plus the
    profile-guided filtering the thesis proposes: use the off-line value
    profile to decide {e which} instructions may use the predictor, raising
    accuracy and table utilization (Gabbay [18]).

    Predictors are first-class values with mutable internal state; create a
    fresh one per simulation.

    Internally a model speaks a cell protocol, so that the per-event path
    allocates nothing: values travel in 8-byte [Bytes] cells, read and
    written with [%caml_bytes_get64]/[%caml_bytes_set64], never as boxed
    [int64]s or options. A model can {e guess} into a cell (returning
    whether it is confident), {e train} from a cell holding the outcome,
    and {e step} — guess, then train, in one call that reports none /
    wrong / right. {!simulate} drives every model through [step], so a
    {!hybrid} asks each component once per event. Table state lives in
    parallel [int array]/[Bytes] slots, and per-pc state in pc-indexed
    arrays that grow by doubling. {!predict} and {!update} are boxing
    conveniences over the same protocol: each call builds an option or
    takes a boxed [int64].

    Every model requires [pc >= 0]: {!predict} and {!update} raise
    [Invalid_argument] on a negative pc. *)

type t

val name : t -> string

(** [predict t ~pc] — the predicted value, or [None] when the predictor is
    not confident (cold entry, tag mismatch, low confidence counter). *)
val predict : t -> pc:int -> int64 option

(** [update t ~pc value] — inform the predictor of the actual outcome. *)
val update : t -> pc:int -> int64 -> unit

(** Tag-mismatch replacements suffered by the predictor's table — the
    aliasing measure used by the utilization experiment. *)
val evictions : t -> int

(** Last-value predictor: direct-mapped table of [2^bits] entries, each
    with tag, value, and a saturating 2-bit confidence counter; predicts
    when confidence is at least [conf_threshold] (default 1). *)
val lvp : ?bits:int -> ?conf_threshold:int -> unit -> t

(** Stride predictor: predicts [last + stride]; stride 0 degenerates to
    last-value, as §II notes. *)
val stride : ?bits:int -> ?conf_threshold:int -> unit -> t

(** Finite-context-method (2-level) predictor: a hash of the last
    [history] values selects the prediction. *)
val fcm : ?bits:int -> ?history:int -> unit -> t

(** [hybrid a b] — per-PC chooser (saturating counter) between two
    component predictors, as in Wang & Franklin [39]. *)
val hybrid : t -> t -> t

(** Unbounded, untagged last-value predictor — the aliasing-free upper
    bound for LVP. *)
val perfect_last : unit -> t

(** [filtered ~profile ~threshold p] — profile-guided gating: [p] is
    consulted and trained only at PCs whose profiled Inv-Top is at least
    [threshold]; other PCs never enter the table. *)
val filtered : profile:Profile.t -> threshold:float -> t -> t

(** [routed ~profile ~last_value ~strided ()] — profile-directed predictor
    selection: each PC is statically routed by its
    {!Metrics.predictor_class} to the last-value component, the stride
    component, or to no predictor at all (unpredictable PCs never touch a
    table). This is the thesis's classification idea taken one step past
    {!filtered}: the profile chooses not just {e whether} but {e which}
    predictor an instruction may use. *)
val routed :
  ?threshold:float -> profile:Profile.t -> last_value:t -> strided:t -> unit -> t

type result = {
  pr_name : string;
  pr_events : int;  (** dynamic value-producing events simulated *)
  pr_predicted : int;  (** confident predictions issued *)
  pr_correct : int;
  pr_accuracy : float;  (** correct / predicted *)
  pr_coverage : float;  (** predicted / events *)
  pr_correct_rate : float;  (** correct / events *)
  pr_evictions : int;
}

(** Run the program once and drive every predictor in the list from the
    same event stream. *)
val simulate :
  ?selection:Atom.selection -> ?fuel:int -> Asm.program -> t list -> result list
