(** Bit-blasting of lowered terms into a CDCL SAT solver, with the Tseitin
    CNF encoding: every gate gets the clauses for both directions of its
    definition, so CNF models restricted to the original variables are
    models of the asserted formulas, and counterexamples are read off them
    directly.

    The word-level circuits (adders, comparators, the multiplier, shifts)
    and the walk over the core fragment are written once, over a gate set,
    and instantiated with two: the AIG's gates (hash-consed, two-level
    rewriting, CNF emitted cone by cone from the reduced graph with MUX/XOR
    recognition) and the direct gates (one SAT variable per gate). The two
    paths differ in that AIG layer only; the direct gates are the reference
    it is checked against.

    A context owns a SAT solver and one encoder: the circuits over one gate
    set, with memoization tables keyed by term id, so shared subterms are
    encoded once. Formulas are asserted incrementally;
    [check] may be called repeatedly (the CEGAR loop's outer context adds a
    formula per round).

    Input terms must be in the bit-blaster's core fragment (see {!Lower});
    [assert_formula] lowers its argument automatically. *)

type t

val create : unit -> t
(** A fresh context over the gate set {!set_simplify} selects when it is
    created: the AIG's gates when on, the direct gates when off. *)

val set_simplify : bool -> unit
(** Process-wide default for AIG structural simplification: when on (the
    default), circuits are built as a hash-consed AND-inverter graph with
    two-level rewriting and CNF is emitted from the reduced graph; when
    off ([--no-aig]), the direct gate-by-gate encoding is used. *)

val simplify : unit -> bool

val assert_formula : t -> Term.t -> unit
(** Assert a Bool-sorted term. @raise Invalid_argument on bitvector sorts. *)

val check : ?conflict_limit:int -> ?deadline:float -> t -> [ `Sat | `Unsat ]
(** [deadline] is absolute wall-clock time; see {!Alive_sat.Solver.solve}.
    @raise Alive_sat.Solver.Budget_exceeded when a limit runs out. *)

val model_value : t -> string -> Term.sort -> Term.value
(** Value of a named variable after a [`Sat] answer. Variables never
    mentioned in any asserted formula default to zero/false. *)

val stats : t -> Alive_sat.Solver.stats
(** Underlying SAT solver telemetry (conflicts, decisions, propagations,
    restarts, clause and variable counts). *)

val export : t -> int * Alive_sat.Solver.lit list list
(** Snapshot of the underlying SAT instance (level-0 facts plus problem
    clauses) for DIMACS dumping; see {!Alive_sat.Solver.export}. *)

val aig_stats : t -> Aig.stats option
(** AIG node counts for this context ([None] in direct mode): raw gate
    requests vs distinct nodes after rewriting/structural hashing. *)

val export_aiger : t -> string option
(** AIGER ASCII rendering of this context's reduced graph, with every
    asserted/assumed root as an output ([None] in direct mode). *)
