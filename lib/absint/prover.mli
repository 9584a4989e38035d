(** The tier-0 static prover: a decision-procedure-free validity check on
    the exact [Term.t] verification conditions that would otherwise be
    bit-blasted. Sound for proving only — [true] means genuinely valid in
    every model (∀-validity, which implies the EF-validity the refinement
    check needs); [false] means "not proved here, ask the SAT solver". *)

val prove_valid :
  ?exists:(string * Alive_smt.Term.sort) list -> Alive_smt.Term.t -> bool
(** [prove_valid ?exists formula]: attempt to show [formula] holds in
    every model, by refuting its negation with the reduced-product
    abstract domain, algebraic normalization, unit propagation and a
    shallow case split. The existential constant prefix is ignored
    (∀-validity is strictly stronger). Bounded by an internal step
    budget, far below the cost of one bit-blasted query. *)
