(** Counterexample-guided precondition inference (Alive-Infer style).

    Given a transformation that is not unconditionally correct, find a
    precondition in the §2.3 surface language that makes it correct:

    + harvest {e negative} examples from the verifier's counterexample
      models and {e positive} examples by running sampled concrete inputs
      through both templates with {!Interp} (target refines source);
    + grow a conjunction of {!Atoms} that holds on every positive and
      rejects every negative (greedy set cover, weakest-first tie-break);
    + validate the candidate with a full SMT round-trip through
      {!Alive.Vcgen}/{!Alive.Refine} — a counterexample becomes a new
      negative and the loop repeats; a valid candidate is minimized by
      re-validating with each conjunct dropped.

    Everything runs under the usual per-query {!Alive_smt.Solve.budget}
    plus a per-transform cap of 12 rounds and 60 wall seconds, so
    inference degrades to an explicit failure note instead of hanging.
    Examples come from 64 concrete tuples on each of the first 4 feasible
    typings. *)

type outcome = {
  transform : string;
  inferred : Alive.Ast.pred option;
      (** the weakest validated precondition found, [None] on failure *)
  verdict : Alive.Refine.verdict option;
      (** the verdict of the final validation run *)
  rounds : int;  (** CEGAR rounds executed *)
  positives : int;
  negatives : int;
  atoms : int;  (** vocabulary size *)
  validations : int;  (** full verifier round-trips, incl. minimization *)
  stats : Alive.Refine.stats;  (** merged solver statistics *)
  elapsed : float;
  note : string;  (** why inference failed, or [""] *)
}

val infer :
  ?widths:int list ->
  ?budget:Alive_smt.Solve.budget ->
  Alive.Ast.transform ->
  outcome
(** Infer a precondition for [t], ignoring any precondition [t] already
    carries (inference always starts from the unconditional check; if that
    is already valid the result is [Ptrue], the weakest precondition of
    all). Never raises. *)

(** {1 Comparing preconditions} *)

type cmp =
  | Equal
  | Weaker  (** the inferred precondition admits strictly more inputs *)
  | Stronger
  | Incomparable
  | Unknown_cmp  (** a comparison query exhausted its budget *)

val cmp_name : cmp -> string

val compare_preds :
  ?widths:int list ->
  ?budget:Alive_smt.Solve.budget ->
  Alive.Ast.transform ->
  Alive.Ast.pred ->
  Alive.Ast.pred ->
  cmp
(** [compare_preds t hand inferred] decides, per feasible typing of [t]
    and aggregated over all of them, the implication order between the two
    preconditions under the precise reading of every built-in predicate
    ({!Alive.Vcgen.pred_term_precise}). [Weaker] means [hand ⇒ inferred]
    everywhere and not conversely. *)
