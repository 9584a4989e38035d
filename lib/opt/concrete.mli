(** Alive constant expressions and preconditions against a matched IR
    context — the runtime counterpart of the C++ the paper generates (§4):
    constant expressions become [APInt] arithmetic, value predicates become
    calls into the trusted dataflow analyses. Both readings are
    {!Alive.Constlang}'s; this module supplies only the leaves. *)

type env = {
  func : Ir.func;
  consts : (string * Bitvec.t) list;  (** abstract constant bindings *)
  values : (string * Ir.value) list;  (** template value bindings *)
}

val cexpr : env -> width:int -> Alive.Ast.cexpr -> Bitvec.t option
(** Concrete evaluation ({!Alive.Constlang.Concrete}). [None] when the
    expression references an unbound name, a value not bound to an IR
    constant, or an unsupported function. *)

val cexpr_width : env -> Alive.Ast.cexpr -> int option
(** Width of an expression by {!Alive.Constlang.width}, resolved through
    its bound named leaves. *)

val tri_pred : env -> Alive.Ast.pred -> Alive_absint.Domain.tribool
(** Abstract precondition evaluation ({!Alive.Constlang.Abstract}):
    [True]/[False] are proofs, undecidable facts are [Unknown] (so negation
    stays sound). Bound constants are singletons; a value bound to an
    instruction reads as its domain in the function's memoized
    known-bits × range analysis, computed over its operand cone when
    evaluation first reaches it; [hasOneUse] is the use count. This is what lets
    conditionally-valid rules fire on symbolic operands whose analysis
    facts discharge the precondition. *)

val pred : env -> Alive.Ast.pred -> bool
(** [tri_pred env p = True]: the rewrite fires only on a proof, mirroring
    how the paper's generated C++ calls must-analyses. *)
