(** The verified ruleset compiled into one discrimination tree over
    opcodes and operand shapes (the decision tree the generated C++ pass
    of §4 effectively is), so matching a candidate definition is a single
    trie walk plus a handful of exact checks instead of an O(rules) scan.

    The trie is a sound pre-filter: it may return candidates that do not
    match (attributes, repeated variables, constant values and
    preconditions are not encoded) but never misses a rule that
    {!Matcher.match_at} would accept. {!match_def} re-verifies candidates
    with [match_at] in registry order, so the compiled path returns the
    same rule and the same bindings as the per-rule scan. *)

type t
(** An immutable compiled ruleset; safe to share across domains. *)

val build : Matcher.rule list -> t
(** Compile the rules, keeping registry order for first-match-wins
    tie-breaks, and compute the rewrite-cycle SCC membership used by the
    pass's cycle guard. *)

val rule_list : t -> Matcher.rule list
val max_depth : t -> int
(** Deepest operand level any compiled pattern inspects (root = 0): the
    radius within which a rewrite can create new match opportunities. *)

val node_count : t -> int
val in_cycle : t -> string -> bool
(** Whether the named rule belongs to a cyclic SCC of the target-feeds
    rewrite graph (the lint driver's rewrite-cycle.scc analysis). *)

val cyclic_count : t -> int

(** {1 Matching} *)

type ctx
(** Per-function matching state: the function and its name → definition
    index, which the trie walk and the matcher read. Build it with
    {!context}, or bring it up to date with {!update} after the function
    changes. *)

val context : t -> Ir.func -> ctx

val update : ctx -> Ir.func -> removed:string list -> defs:Ir.def list -> unit
(** [update ctx func ~removed ~defs] makes [ctx] the context of [func], a
    rewrite of its function that drops the definitions named [removed] and
    adds or redefines [defs]; the rest of the index is kept. *)

val find_def : ctx -> string -> Ir.def option

val candidates : ctx -> Ir.def -> Matcher.rule list
(** Rules whose source shape can match at the definition, in registry
    order — the trie walk over the definition's operand DAG, without the
    final [match_at] verification. It
    contains every rule {!Matcher.match_at} accepts there, which makes the
    pass's first firing rule the per-rule scan's; test/test_compiled.ml
    checks both against that scan. *)

val match_rule :
  ctx ->
  Matcher.rule ->
  Ir.def ->
  (Matcher.match_result, Matcher.failure) result
(** {!Matcher.match_root} at the definition, through the context's index:
    what {!Matcher.match_at} gives at its name, and why not when it gives
    [None]. *)

val match_def : ctx -> Ir.def -> (Matcher.rule * Matcher.match_result) option
(** First candidate (registry order) accepted by {!match_rule}. *)
