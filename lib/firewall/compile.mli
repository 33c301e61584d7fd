(** Translation-validated compilation of rule tables to filter programs.

    A table becomes one straight-line CSPF program: a shape guard (the
    packet is an IPv4 frame with every matched word present) conjoined
    with a first-match chain built by folding the rules from the back —
    an accept rule [r] over the rest [k] is [r ∨ k], a drop rule is
    [¬r ∧ k], and the innermost term is the default action. Every rule
    conjunct is a masked word equality or a range bound, so the whole
    program stays inside the fragment of the language {!Pf_filter.Symex}
    decides exactly.

    Two programs are produced: the {e naive} chain ([compile
    ~short_circuit:false ~optimize:false], every term evaluated, shaped
    exactly like the fold) and the {e optimized} one (simplified,
    short-circuiting spine). {!compile} proves them equal with
    {!Pf_filter.Equiv.check} before the optimized program is allowed out;
    a refuted or inconclusive check falls back to the naive chain — and
    the test suite treats that fallback as a failure on the shipped
    example tables.

    The shape guard ends with the tautology [word 18 >= 0]. That term is
    not decoration: it forces {e every} compiled form of the table to
    reference word 18, and because word presence is contiguous the
    programs' length behavior collapses to the single fact "at least 19
    words", matching {!Table.eval}'s precondition even after [simplify]
    deletes rules whose terms became unreachable. *)

val shape_conjuncts : Pf_filter.Expr.t list
(** [word 6 = 0x0800]; [word 7 land 0xff00 = 0x4500]; [word 18 >= 0]. *)

val match_expr : Rule.t -> Pf_filter.Expr.t
(** Conjunction of the rule's 5-tuple tests (without the shape guard):
    protocol byte, masked src/dst words, fragment-offset zero when ports
    are constrained, port range bounds. *)

val naive_program : ?priority:int -> Table.t -> Pf_filter.Program.t
val optimized_program : ?priority:int -> Table.t -> Pf_filter.Program.t

val rule_guards : Rule.t -> (int * int) list * bool
(** {!Pf_filter.Analysis.guards} of the rule's single-rule program: the
    leading word-equality chain the dispatch automaton would group this
    rule under, and whether the chain is the whole predicate. *)

type compiled = {
  table : Table.t;
  naive : Pf_filter.Validate.t;  (** the reference chain, compiled 1:1 *)
  installed : Pf_filter.Validate.t;
      (** what to hand to the kernel: the optimized program when
          certified, the naive chain otherwise *)
  report : Pf_filter.Equiv.report;
      (** the naive-vs-optimized equivalence check *)
  certification : Pf_filter.Equiv.certification;
  fell_back : bool;
      (** true iff [installed] is the naive chain because the optimized
          candidate was refuted, inconclusive, or failed validation *)
}

val default_budget : int
(** Per-side symbolic path budget (65536). Generous on purpose: a naive
    chain forks at every comparison, and a proof — not a budget shrug —
    is the product being sold here. *)

val default_pair_budget : int
(** Differing-verdict path-pair budget (5,000,000). Pairs are only
    counted, never solved, unless their verdicts differ, so this is
    cheap headroom, not work actually done on proved tables. *)

val compile :
  ?budget:int -> ?pair_budget:int -> ?priority:int -> Table.t ->
  (compiled, Pf_filter.Validate.error) result
(** [Error] means the naive chain does not fit the filter machine (a
    table this size overflows the 255-word program limit) — nothing was
    compiled. *)

(** Test-only fault injection for the differential fuzz oracle. *)
module For_testing : sig
  val last_match_wins : bool ref
  (** When true, the first-match fold runs over the rules in reverse — the classic
      first-match-order bug. The oracle must catch it. *)
end
