(** Refinement checking (§3.1.2).

    For every feasible typing and every instruction name defined in both the
    source and the target, with [ψ = φ ∧ side ∧ δ_src ∧ ρ_src]:

    + the target must be defined when the source is: [ψ ⇒ δ_tgt];
    + the target must be poison-free when the source is: [ψ ⇒ ρ_tgt];
    + values must agree: [ψ ⇒ ι_src = ι_tgt].

    All three are universally quantified over inputs, abstract constants,
    analysis variables, and target [undef] variables, and existentially over
    source [undef] variables (decided by the CEGAR loop in {!Alive_smt.Solve}).
    A transformation is correct iff every check holds for every feasible
    typing (Theorem 1); bounded by the width domain as in the paper.

    Every query runs under an optional {!Alive_smt.Solve.budget}; exhausting
    it yields the [Unknown] verdict (never an exception, never a hang), so a
    batch scheduler can keep going when one query is pathological. *)

type unknown_info = {
  unknown_transform : string;
  at : string;  (** instruction name, or ["memory"] for criterion 4 *)
  reason : Alive_smt.Solve.reason;
}

type verdict =
  | Valid of { typings_checked : int }
  | Invalid of Counterexample.t
  | Unknown of unknown_info
      (** some query exhausted its budget and no other typing produced a
          definite counterexample *)
  | Type_error of Typing.error
  | Unsupported_feature of string

val pp_verdict : Format.formatter -> verdict -> unit

val is_valid_verdict : verdict -> bool

val verdict_class : verdict -> [ `Valid | `Invalid | `Unknown ]
(** Three-way classification for exit codes: definite failures
    ([Invalid], [Type_error]) vs. undecided ([Unknown],
    [Unsupported_feature]). *)

val verdict_name : verdict -> string
(** The report name every surface prints: ["valid"], ["invalid"],
    ["type-error"], ["unsupported"], or ["unknown:<reason>"] where the
    reason slug says which budget ran out ([timeout], [conflicts], or
    [cegar] — see {!Alive_smt.Solve.reason_slug}). *)

(** {1 Statistics} *)

type stats = {
  mutable typings_done : int;
  mutable queries : int;
      (** refinement criteria decided (one CEGAR solve each) *)
  mutable unknown_timeout : int;
      (** queries whose wall deadline passed before they were decided *)
  mutable unknown_conflicts : int;
      (** ... whose SAT conflict allowance ran out *)
  mutable unknown_cegar : int;  (** ... that hit the CEGAR iteration cap *)
  mutable typing_s : float;  (** wall seconds enumerating feasible typings *)
  mutable vcgen_s : float;
      (** wall seconds generating verification conditions *)
  mutable static_s : float;
      (** wall seconds in tier 0, the static prover, over every query *)
  telemetry : Alive_smt.Solve.telemetry;
  mutable elapsed : float;  (** wall seconds for the whole check *)
}

val table : stats Alive_trace.Metrics.Table.row list
(** The counter table of a check: every field but [elapsed] is a row —
    [typings] ([refine.typings] in the registry), [queries],
    [unknown_<reason>] ([refine.unknown.<reason>], with
    {!Alive_smt.Solve.reason_slug}), [typing_s], [vcgen_s] and [static_s] —
    followed by {!Alive_smt.Solve.table}'s rows, read through
    [telemetry]. Merging, printing, the JSON reports and publication are
    folds over it, so a new count is a record field and one row. *)

val empty_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Add every row of a record, and its [elapsed], into [into]. *)

val pp_stats : Format.formatter -> stats -> unit
(** Every row as [report=value]. *)

(** {1 The tier ladder}

    Each query is decided by the first tier that answers it: the tier-0
    static prover, this domain's verdict cache, the persistent store
    behind it, then the SMT solver. *)

type tier = Static | Cache | Store | Smt
(** In ladder order, so [compare] ranks them: a transform is only as cheap
    as its slowest query. *)

val tier_name : tier -> string
(** ["static"], ["cache"], ["store"] or ["smt"]. *)

(** {1 Typing-level interface}

    The parallel engine schedules individual (transform × typing) tasks;
    these are the pieces {!run} is built from. *)

val feasible_typings :
  ?widths:int list -> Ast.transform -> (Typing.env list, Typing.error) Stdlib.result
(** The feasible typings in scan order. A type error, or no feasible typing
    in the width domain, is an [Error]: {!scan} reports it as
    [Type_error]. *)

val typing_vc :
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Ast.transform ->
  Typing.env ->
  (Vcgen.vc, string) Stdlib.result
(** One typing's VC ({!Vcgen.run}), or the unsupported construct that
    stops it: {!scan} reports that as [Unsupported_feature]. *)

type typing_outcome =
  | Typing_ok
  | Typing_cex of Counterexample.t * Vcgen.vc
  | Typing_unknown of { at : string; reason : Alive_smt.Solve.reason }
  | Typing_unsupported of string

val check_typing :
  ?budget:Alive_smt.Solve.budget ->
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Ast.transform ->
  Typing.env ->
  typing_outcome * stats
(** Check one typing: its VC, then each query up the tier ladder in
    {!typing_queries} order, solving none after a counterexample. Returns
    the typing's own stats; never raises. *)

(** {1 Whole-transform checking} *)

type result = {
  verdict : verdict;
  stats : stats;
  cex_vc : (Typing.env * Vcgen.vc) option;
      (** typing and VC of the counterexample, for rendering *)
}

val scan :
  widths:int list option ->
  Ast.transform ->
  (Typing.env list -> (typing_outcome * stats) list) ->
  result
(** The whole-transform scan around a typing checker. Enumerates the
    feasible typings — a type error, or no feasible typing in the width
    domain, is [Type_error] — and hands them to the checker, which returns
    one {!check_typing} result per typing it checked, in typing order; it
    may stop after the first [Typing_cex] or [Typing_unsupported]. The
    verdict rule: the lowest-index [Typing_cex] or [Typing_unsupported]
    wins, else the first [Typing_unknown], else [Valid]. The merged stats
    go to the metrics registry once, every row of {!table}. {!run} checks
    the typings one by one; [Engine.check_parallel] on a domain pool. *)

val run :
  ?widths:int list ->
  ?precise_pre:bool ->
  ?budget:Alive_smt.Solve.budget ->
  Ast.transform ->
  result
(** {!scan} checking typings sequentially: an [Invalid] stops the scan, so
    no later VC is generated; an [Unknown] is remembered but the remaining
    typings still run, since a later definite counterexample outranks it.
    [precise_pre] selects the two-sided reading of precondition predicate
    calls (see {!Vcgen.run}); precondition inference relies on it. *)

val check :
  ?widths:int list ->
  ?share_memory_reads:bool ->
  ?budget:Alive_smt.Solve.budget ->
  Ast.transform ->
  verdict
(** {!run}'s verdict. [share_memory_reads] selects the §3.3.3 memory
    encoding variant (see {!Vcgen.run}); the memory-encoding ablation
    compares the two. *)

val typing_queries :
  Vcgen.vc -> (string * Counterexample.kind * Alive_smt.Term.t) list
(** The refinement queries of one typing's VC, in exact scan order: per
    checked name the definedness, poison and value criteria, then the
    memory criterion when present. This is the construction [check_typing]
    solves and [query_digests] fingerprints — the two must agree
    byte-for-byte, so it is factored here. *)

val query_digests :
  ?widths:int list -> Ast.transform -> (string list list, string) Stdlib.result
(** The content digests ({!Alive_smt.Vc_cache.digest}) of every refinement
    query this transform would solve, one inner list per feasible typing in
    scan order — without invoking the solver. These are exactly the keys
    {!run} files verdicts under in the persistent store; the daemon's
    [digests] op and slow-query log report them. [Error] where {!run} would
    say [Type_error] (no feasible typing included) or
    [Unsupported_feature]. *)

type query_probe = {
  probe_at : string;  (** instruction name, or ["memory"] for criterion 4 *)
  probe_kind : string;  (** ["defined"], ["poison"], or ["value"] *)
  probe_digest : string;  (** the store key ({!Alive_smt.Vc_cache.digest}) *)
  probe_tier : tier;
      (** the tier that would decide it right now: tier 0 proves it, or
          the calling domain's cache or the installed store holds it, or
          else the solver *)
}

val probe_queries :
  ?widths:int list -> Ast.transform -> (query_probe list list, string) Stdlib.result
(** Verdict provenance for the daemon's [explain] op: the same queries
    {!query_digests} fingerprints, each with its tier — without invoking
    the solver or disturbing any counters. Run it on the same engine pool
    that solves to see the caches solving actually warmed. [Error] as for
    {!query_digests}. *)

type static_summary = {
  static_typings : int;  (** feasible typings examined *)
  static_queries : int;  (** refinement queries examined *)
  static_discharged : int;  (** queries the static prover discharged *)
  static_complete : bool;
      (** every query of every feasible typing was statically proved — the
          transform's validity needs no solver at all *)
}

val static_report :
  ?widths:int list -> Ast.transform -> (static_summary, string) Stdlib.result
(** Run only the tier-0 static prover over every refinement query of every
    feasible typing — no SAT, no cache. Powers the golden coverage tests.
    [Error] as for {!query_digests}. *)

type static_recheck = {
  recheck_confirmed : int;  (** the solver proved the query too *)
  recheck_unknown : int;  (** the solver ran out of its conflict budget *)
  recheck_refuted : string list;
      (** the typing and criterion of each query the solver refuted: a
          soundness bug in the static prover *)
}

val static_recheck_conflicts : int
(** The conflict budget of each re-solve in {!static_check}: 20,000. *)

val static_check :
  ?widths:int list ->
  Ast.transform ->
  (static_summary * static_recheck, string) Stdlib.result
(** {!static_report}, and every query tier 0 proves re-solved by the SAT
    solver under {!static_recheck_conflicts} conflicts, past the verdict
    cache. This is how [alive corpus static-report] checks that tier 0
    never contradicts the solver. *)

val render_verdict : Ast.transform -> verdict -> string
(** Human-readable report; for invalid transformations this is the Fig. 5
    counterexample format. *)
