(** Abstract interpretation over Alive templates ({!Alive_absint.Query}
    does the same over concrete IR). Inputs and abstract constants are ⊤;
    evaluation happens at a caller-chosen analysis width over the reduced
    product of known bits × ranges × congruence ({!Alive_absint.Domain}).
    Instructions are read by {!Semantics} and constant expressions and
    preconditions by {!Alive.Constlang}, both over
    {!Alive_absint.Domain_algebra} (or its known-bits-only instance), with
    abstract constants, [width(...)] and [hasOneUse] unknown. The DSL is
    width-polymorphic, so sound conclusions require agreement across
    several analysis widths — see {!Rules.analysis_widths}. *)

type av = Alive_absint.Domain.t

(** Kleene three-valued truth (re-exported from the domain). *)
type tribool = Alive_absint.Domain.tribool = True | False | Unknown

type env

val env_of_source : ?kb_only:bool -> width:int -> Alive.Ast.stmt list -> env
(** Abstractly execute a source pattern: each definition's value is derived
    from its operands via the {!Alive_absint.Domain} transfer functions.
    [~kb_only:true] collapses every value to its known-bits component —
    the precision of the pre-range linter — so a rule can attribute a
    verdict to the range/congruence domains by comparing modes. *)

val eval_inst : env -> w:int -> Alive.Ast.inst -> av
(** Transfer of one template instruction under [env]'s bindings. *)

val inst_always_poison : env -> w:int -> Alive.Ast.inst -> tribool
(** [True] when every concretization of the operands makes the instruction
    undefined: the negation of its {!Semantics} Table 1 definedness (a
    zero divisor, [INT_MIN / -1], a shift by at least the width). Powers
    the [static-poison.target] lint rule. *)

val target_poison :
  width:int ->
  Alive.Ast.stmt list ->
  Alive.Ast.stmt list ->
  (int * tribool) list
(** [target_poison ~width src tgt]: interpret [src], then walk [tgt]
    definition by definition, reporting for each statement index whether
    the instruction is {!inst_always_poison} under everything matched so
    far. *)

val eval_pred : env -> Alive.Ast.pred -> tribool
(** Three-valued evaluation of a precondition under the abstract
    environment: [True]/[False] only when every concretization of the
    source pattern agrees (at this analysis width). *)
