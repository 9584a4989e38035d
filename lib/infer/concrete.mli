(** Concrete semantics for precondition inference.

    Inference needs three executable views of a transformation, all under
    one concrete typing and one concrete binding of inputs and abstract
    constants:

    - constant expressions and predicates evaluated over {!Bitvec} by
      {!Alive.Constlang}, the one definition the verifier also reads over
      SMT terms, so a predicate learned on concrete examples means the same
      thing to the verifier;
    - both templates lowered to executable {!Ir} functions, with abstract
      constants folded in as literals;
    - an example classifier that runs both sides through {!Interp} and
      labels the binding positive (target refines source) or negative. *)

type binds = (string * Bitvec.t) list
(** Values for inputs and abstract constants, keyed by their source names
    (["%x"], ["C1"], …). *)

exception Eval_error of string
(** An expression outside the executable fragment, or an unbound name. *)

val eval_pred : Alive.Typing.env -> binds:binds -> Alive.Ast.pred -> bool
(** Evaluate a precondition under the {e precise} reading of every built-in
    predicate ({!Alive.Constlang.Concrete}; [hasOneUse] is [true]).
    @raise Eval_error outside the fragment or on an unbound name. *)

val lower :
  Alive.Typing.env ->
  binds:binds ->
  Alive.Scoping.info ->
  Alive.Ast.transform ->
  (Ir.func * Ir.func, string) result
(** Lower the source and target templates to straight-line IR functions
    over the transformation's inputs (both take every input, in scoping
    order). Abstract constants and constant expressions are folded to
    literals using [binds]; target instructions that read a source
    temporary see the source computation (the source defs they need are
    inlined ahead of the target body); target definitions that shadow a
    source name are renamed. Memory operations and pointer types are
    rejected. *)

type label = Pos | Neg | Skip

val classify : src:Ir.func -> tgt:Ir.func -> Bitvec.t list -> label
(** Run both functions on one argument tuple under the deterministic
    [Zero] undef policy. [Pos] when the target refines the source, [Neg]
    when it observably does not, [Skip] when either run fails or when a
    non-refinement could be an artifact of pinning [undef] (either side
    mentions [undef]). *)

val func_mentions_undef : Ir.func -> bool
