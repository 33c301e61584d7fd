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
    fuzz oracle ({!Pf_fuzz.Oracle}) cross-checks both the optimized IR
    (via {!Regvm}) and the raised stack program on every case.

    {2 Raising}

    {!raise_program} lowers, optimizes, and then {e raises} the IR back
    into a stack program, so every stack engine (Interp/Fast/Closure/
    Decision) and the 16-bit wire encoding benefit from the same
    optimization. Raising replays the IR in order: compare-and-terminate
    exits become short-circuit operators, operand trees are rematerialized
    on demand (the stack machine has no dup, so shared values are
    recomputed — sound because packets are immutable), and instructions
    that can reject are pinned before the next accepting exit so fault
    order stays observably identical. If the result does not validate,
    grows in code words, or raises the {!Analysis.t.cost_bound}, the
    original program is returned unchanged — raising never loses. *)

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
      (** {!raise_program} only: the raised candidate was rejected (failed
          validation, grew, or cost more) and the original program was
          kept. Always [false] in {!optimize} reports. *)
}

val optimize : Validate.t -> Ir.t * report
(** Lower and run the pass pipeline to a fixpoint; registers are
    renumbered densely afterwards (the [reg_count] is what {!Regvm} sizes
    its scratch file with). *)

val raise_program : Validate.t -> Program.t * report
(** The full lower → optimize → raise round trip with the never-lose
    fallback described above. The result always validates, never has more
    code words than the source, never a larger {!Analysis.t.cost_bound},
    and keeps the [`Paper] verdict on every packet. *)

val optimize_certified :
  ?budget:int -> ?superopt:int -> ?seed:int -> ?memo:Equiv.Memo.t ->
  Validate.t -> (Ir.t * report) * Equiv.certification
(** [optimize] under translation validation: the optimized IR is checked
    against the source program with {!Equiv.check_ir}. On {!Equiv.Refuted}
    the unoptimized lowering ({!Ir.lower}, with [fell_back] set) is
    returned alongside the witness packet; [Uncertified] keeps the
    optimized IR and says why the check fell short (e.g. path budget).

    [~superopt:n] additionally runs the stochastic superoptimizer
    ({!Superopt.search}, [n] proposals, optionally [?seed]/[?memo]) on the
    certified result; the search only moves through candidates proved
    equal to its incumbent, so the certification outcome is unchanged. A
    ["superopt"] entry (static cycles saved) is appended to the report's
    passes. *)

val optimize_superopt :
  ?equiv_budget:int -> ?budget:int -> ?seed:int -> ?memo:Equiv.Memo.t ->
  Validate.t -> (Ir.t * report) * Equiv.certification * Superopt.outcome
(** [optimize_certified ~superopt] with the full search {!Superopt.outcome}
    (stats, refuted candidates) exposed — what [pftool superopt] and the
    [`Regvm_super] install path report from. [equiv_budget] bounds the
    pipeline certification; [budget] is the search's proposal count. *)
