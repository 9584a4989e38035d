(** Verification condition generation (§3.1, Tables 1–2).

    For a fixed concrete typing, each template instruction yields three SMT
    expressions: the value it computes, the condition under which it is
    defined, and the condition under which it is poison-free. Definedness and
    poison-freedom aggregate over def-use chains: an instruction's condition
    conjoins its local condition with its operands' conditions.

    [undef] operands become fresh SMT variables collected per side; the
    refinement checker quantifies them per §3.1.2 (universally for the
    target, existentially for the source). Precondition predicates backed by
    approximating dataflow analyses become fresh boolean variables with side
    constraints ([p ⇒ fact]); predicates applied to compile-time constants
    are encoded precisely (§3.1.1). *)

type ival = (Alive_smt.Term.t, Alive_smt.Term.t) Semantics.ival
(** The value, δ and ρ, each aggregated over the def-use chain. The
    integer instructions' are {!Semantics.Make} over terms. *)

type side_vc = {
  defs : (string * ival) list;  (** template definitions, in order *)
  undefs : (string * Alive_smt.Term.sort) list;
      (** fresh variables standing for [undef] occurrences *)
}

(** Memory encoding (§3.3), present when the transformation touches
    memory. Both sides start from one shared initial memory; the encoding
    is the eager Ackermannization of §3.3.3 (no array theory): loads are
    nested [ite] chains over guarded stores, and reads of the initial
    memory are fresh shared variables with pairwise congruence
    constraints. *)
type memory_vc = {
  src_read : Alive_smt.Term.t -> Alive_smt.Term.t;
      (** final source memory: one byte at an address term *)
  tgt_read : Alive_smt.Term.t -> Alive_smt.Term.t;
  alloca : Alive_smt.Term.t list;  (** the α constraints of §3.3.1 *)
  congruence : unit -> Alive_smt.Term.t list;
      (** Ackermann congruence constraints; call after the last read *)
}

type vc = {
  src : side_vc;
  tgt : side_vc;
  precondition : Alive_smt.Term.t;  (** φ, including analysis variables *)
  side_constraints : Alive_smt.Term.t list;  (** [p ⇒ fact] constraints *)
  analysis_vars : (string * Alive_smt.Term.sort) list;  (** the set P *)
  inputs : (string * Alive_smt.Term.sort) list;
      (** input values and abstract constants (the set I) *)
  memory : memory_vc option;
}

exception Unsupported of string

val input_var : string -> int -> Alive_smt.Term.t
(** The SMT variable standing for input or constant [name] at a width. *)

val run :
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Typing.env ->
  Ast.transform ->
  vc
(** [share_memory_reads] (default true) selects the eager encoding of
    §3.3.3 in which identical initial-memory read addresses share one SMT
    variable; [false] falls back to the classical Ackermann expansion (one
    fresh variable per read) for the encoding-ablation benchmark.
    [precise_pre] (default false) encodes the precondition with
    {!pred_term_precise} — every predicate call becomes its underlying
    fact, with no one-sided analysis variables — which is what candidate
    validation during precondition inference needs: under the default
    reading a negated predicate call is satisfiable even where the fact
    holds, so counterexample models would disagree with concrete
    evaluation.
    @raise Unsupported for constructs outside the implemented fragment. *)

val pred_term_precise :
  Typing.env ->
  lookup:(string -> Alive_smt.Term.t) ->
  Ast.pred ->
  Alive_smt.Term.t
(** Translate a precondition with every built-in predicate read as its
    precise underlying fact ({!Constlang} over terms) — no must-analysis
    variables, no side constraints. Used by precondition inference to
    compare two predicates as facts about the inputs ([hasOneUse] still
    reads as [true]). @raise Unsupported outside the implemented
    fragment. *)
