(** Matching Alive source templates against IR and rewriting to the target —
    the native-code twin of the generated C++ (§4): the same DAG match,
    precondition check, instruction creation, and use replacement.

    A rule must have been verified before being registered; this module
    performs no verification itself. *)

type rule = {
  rule_name : string;
  transform : Alive.Ast.transform;
  src_defs : (string * Alive.Ast.inst) list;
      (** the source template's definitions, by name *)
  template_root : string;  (** the variable both templates define last *)
}

val rule_of_transform : Alive.Ast.transform -> (rule, string) result
(** Pre-compiles scoping information; rejects templates outside the
    executable integer fragment (memory operations, [unreachable]). *)

val corpus_rules : unit -> rule list
(** The verified canonical corpus entries of {!Alive_suite.Registry.all}
    that are executable, as rules in registry order. Each call parses the
    corpus afresh; the pass shares one compiled tree per physical list, so
    bind the result once and pass that list to every call. *)

type match_result = {
  bindings : Concrete.env;
  root : string;  (** the matched root definition's name *)
  find : string -> Ir.def option;
      (** the name table the match read the function through; {!plan}
          reads it too *)
}

(** Why a rule does not match at a definition. *)
type failure =
  | Shape
      (** an opcode, attribute, constant, width or repeated name differs:
          a fact of the operand DAG within the pattern's depth *)
  | Precondition
      (** the source matches but the precondition is not proven; the
          analysis reads the whole operand cone and [hasOneUse] the use
          counts, so this can change when the function changes elsewhere *)

val match_root :
  rule ->
  find:(string -> Ir.def option) ->
  Ir.func ->
  Ir.def ->
  (match_result, failure) result
(** Match the rule's source template rooted at the given definition of the
    function, reading its other definitions through [find] (which must
    agree with the function's body), and check the precondition
    concretely. *)

val match_at : rule -> Ir.func -> string -> match_result option
(** {!match_root} at the named definition, with definitions looked up by
    scanning the body. *)

(** {1 Template-level unification (lint support)}

    These match one template against another template, keeping the
    subject's free variables symbolic. SMT-free and purely structural:
    compound constant expressions unify only syntactically, and
    preconditions are ignored — callers decide how to weigh them. *)

val source_covers : rule -> rule -> bool
(** [source_covers a b]: every instruction DAG matched by [b]'s source
    pattern is also matched by [a]'s source pattern (so, modulo
    preconditions, an earlier [a] shadows [b] in first-match-wins order). *)

val target_feeds : rule -> rule -> bool
(** [target_feeds a b]: [b]'s source pattern matches the code [a]'s target
    template emits — an A→B edge of the rewrite graph whose cycles make
    the fixpoint pass loop. *)

val cyclic_sccs : rule array -> int list list
(** The strongly connected components of the {!target_feeds} graph over
    the rules that hold a cycle (two or more members, or one with a
    self-loop), as ascending index lists, in the order Tarjan's algorithm
    completes them. The pass caps these rules' firings; lint reports
    each component. *)

(** {1 Rewriting} *)

type replacement =
  | Inst of Ir.def  (** the root is redefined in place by this definition *)
  | Copy of Ir.value
      (** the root is dropped and its uses take this value *)

type plan = {
  root : string;  (** the matched root definition's name *)
  defs : Ir.def list;
      (** the target's other definitions, in order, under fresh names *)
  replacement : replacement;
}
(** An instantiated target template, not yet spliced into the function. *)

val plan : rule -> Ir.func -> match_result -> plan option
(** Instantiate the rule's target at the match. [None] if a target constant
    expression cannot be evaluated. *)

val splice : dead:(string -> bool) -> Ir.func -> plan -> Ir.func
(** Insert the plan's definitions just before the root, replace or drop the
    root, and drop every definition (old or planned) that [dead] names.
    Definitions it leaves alone stay the same physical values. *)

val rewrite : rule -> Ir.func -> match_result -> Ir.func option
(** [splice ~dead:(fun _ -> false)] of the {!plan}: replace the root
    definition with the instantiated target template (new definitions
    inserted just before the root, root redefined in place). Dead source
    instructions are left for DCE. [None] if a target constant expression
    cannot be evaluated. *)
