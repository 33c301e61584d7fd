(** The optimizing backend over the register IR.

    {!Ir.lower} turns a validated stack program into three-address code;
    this module spends the dataflow that representation exposes:

    - {e terminator folding} seeded by {!Analysis} interval facts: a filter
      whose verdict the abstract interpreter decides collapses to a bare
      [Halt], and a proven always-terminating instruction truncates
      everything after it;
    - {e constant folding and copy propagation}: operators whose operands
      are immediates fold away (a division by a constant zero folds to the
      rejecting terminator), and algebraic identities ([x and 0xffff],
      [x add 0], [x sub x], ...) turn into copies or constants that
      propagate into later operands;
    - {e common subexpression elimination}: repeated [pushword+i] loads and
      identical subtrees read each packet word once (registers are
      single-assignment and packets immutable, so availability is global);
      a repeated compare-and-terminate on the same operands is deleted (it
      can fire only if the first did) or, with the opposite polarity,
      decides the program;
    - {e dead-value elimination}: values no execution can observe are
      dropped. Instructions that can reject on their own survive unless
      provably harmless: a dead packet load is deleted only when an earlier
      retained load proves the packet long enough, a dead division only
      when its divisor is a non-zero immediate.

    The pipeline preserves the [`Paper] verdict of {!Interp.run} on every
    packet — including short packets and runtime faults. The differential
    fuzz oracle ({!Pf_fuzz.Oracle}) cross-checks the optimized IR (via
    {!Regvm}) on every case, and {!certify} proves it against the source
    before a device runs it. *)

type report = {
  insns_before : int;  (** stack instructions in the source program *)
  lowered_instrs : int;  (** IR instructions straight out of {!Ir.lower} *)
  optimized_instrs : int;  (** IR instructions after the pipeline *)
  loads_before : int;  (** packet loads in the lowered IR *)
  loads_after : int;  (** packet loads after the pipeline *)
  passes : (string * int) list;
      (** Per-pass change counts in pipeline order ([analysis], [fold],
          [cse], [dve]), summed over fixpoint iterations. *)
  fell_back : bool;
      (** {!certify} only: the optimized IR was not proved equal to its
          source and the plain lowering ({!Ir.lower}) replaced it. Always
          [false] in {!optimize} reports. *)
}

val optimize : Validate.t -> Ir.t * report
(** Lower and run the pass pipeline to a fixpoint; registers are
    renumbered densely afterwards (the [reg_count] is what {!Regvm} sizes
    its scratch file with). *)

val certify :
  ?budget:int -> ?memo:Equiv.Memo.t -> Validate.t -> Ir.t * report ->
  (Ir.t * report) * Equiv.certification
(** Translation-validate an {!optimize} result against its source with
    {!Equiv.certify_ir}, through [memo]'s shape table (default: a fresh
    one). This is the one unproved-compile policy, for both register-VM
    install strategies: unless the result is {!Equiv.Certified}, the plain
    lowering ({!Ir.lower}, with [fell_back] set) replaces the optimized IR.
    The certification is returned either way: [Refuted] carries the
    witness packet, [Uncertified] says why the check fell short (e.g. path
    budget, an undecided path pair). *)

val optimize_superopt :
  ?equiv_budget:int -> ?budget:int -> ?seed:int -> ?memo:Equiv.Memo.t ->
  Validate.t -> (Ir.t * report) * Equiv.certification * Superopt.outcome
(** {!certify} the pipeline, then run the stochastic superoptimizer
    ({!Superopt.search}, [budget] proposals, [seed], sharing [memo]) on
    what it shipped. The search only moves through candidates proved equal
    to its incumbent, so the certification stands for the result. A
    ["superopt"] entry (static cycles saved) is appended to the report's
    passes, and the full search {!Superopt.outcome} (stats, refuted
    candidates) is returned — what [pftool superopt] and the
    [`Regvm_super] install path report from. [equiv_budget] bounds the
    pipeline certification. *)

module For_testing : sig
  val miscompile_literal : int option ref
  (** When [Some v], {!optimize} rewrites every immediate equal to [v] to
      [v + 1]: a miscompilation wrong for exactly one literal value, which
      certification must refute. Never set it outside tests. *)
end
