(** The optimization pass: dead-code removal, then a worklist
    rescan fixpoint over the {!Compiled} decision tree (first match wins in
    registry order, as in the generated C++ pass of §4) that keeps the
    function dead-free. Firing counts feed the Fig. 9 experiment. *)

type stats = (string * int) list
(** Rule name → number of firings, descending. *)

val dce : Ir.func -> Ir.func
(** Keep exactly the definitions [ret] reaches, in order, in one backward
    sweep; the function itself when none is dead. The body must list each
    definition before its uses (as {!Ir.validate} checks): then this is
    removing definitions without uses until none is left. Instructions that
    can trigger UB (division, shifts) are kept only if reached — the same
    (deliberate) aggressiveness as LLVM's DCE on InstCombine leftovers. *)

type outcome = {
  func : Ir.func;
  stats : stats;
  saturated : bool;
      (** the rewrite budget ran out before a fixpoint — the signature of a
          rewrite cycle in the rule set (§4's non-termination loops) *)
}

val run_guarded :
  rules:Matcher.rule list ->
  ?max_rewrites:int ->
  Ir.func ->
  outcome
(** Like {!run}, but reports whether the fixpoint was actually reached or
    the budget cut a (probable) rewrite cycle short. After a rewrite only
    the changed definitions and their users within the compiled pattern
    depth are re-examined; a final sweep re-validates the fixpoint, so a
    body-shrinking rewrite can never skip its successor. The sweep
    re-tries the definitions whose last try was refused by something
    other than shape (an unproven precondition, the cost guard, the cycle
    cap) or fired; one refused on shape alone is requeued when a
    definition its patterns can reach changes. Rules in a
    cyclic SCC of the rewrite graph are additionally capped per
    (definition, rule) site. The input's dead code is removed first, so
    no rule fires at a dead definition and the output is dead-free. A
    rewrite is accepted when the DCE'd result costs no more, which is
    scored from use counts before the function is rewritten in place. The
    body must list each definition before its uses; the input is never
    mutated. *)

val run :
  rules:Matcher.rule list ->
  ?max_rewrites:int ->
  Ir.func ->
  Ir.func * stats

val run_module :
  rules:Matcher.rule list ->
  ?max_rewrites:int ->
  Ir.func list ->
  Ir.func list * stats
(** Accumulated firing statistics over many functions. *)

val merge_stats : stats -> stats -> stats
