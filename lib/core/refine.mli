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

(** {1 Statistics} *)

type unknown_breakdown = {
  by_timeout : int;
  by_conflicts : int;
  by_cegar : int;
}
(** Budget-exhausted queries split by {e why} the budget ran out: wall
    deadline, SAT conflict allowance, or the CEGAR iteration cap. *)

val count_unknown : unknown_breakdown -> Alive_smt.Solve.reason -> unknown_breakdown

type stats = {
  typings_done : int;
  queries : int;  (** refinement criteria decided (one CEGAR solve each) *)
  unknowns : int;  (** queries that exhausted their budget *)
  unknown_reasons : unknown_breakdown;
      (** the same queries, split by reason; the three fields sum to
          [unknowns] *)
  typing_s : float;  (** wall seconds enumerating feasible typings *)
  vcgen_s : float;  (** wall seconds generating verification conditions *)
  telemetry : Alive_smt.Solve.telemetry;
  elapsed : float;  (** wall seconds for the whole check *)
}

val empty_stats : unit -> stats
val merge_stats : stats -> stats -> stats

val pp_stats : Format.formatter -> stats -> unit
(** [key=value] pairs: the check's own counts and times, then every solver
    counter under its report name. *)

val publish : stats -> unit
(** Add a finished check to the metrics registry: its solver counters
    ({!Alive_smt.Solve.publish}) and its query count, as
    ["refine.queries"]. {!run} publishes its result itself; a caller that
    assembles a check from {!check_typing}s publishes the merged stats
    once. *)

(** {1 Typing-level interface}

    The parallel engine schedules individual (transform × typing) tasks;
    these are the pieces {!run} is built from. *)

type typing_outcome =
  | Typing_ok
  | Typing_cex of Counterexample.t * Vcgen.vc
  | Typing_unknown of { at : string; reason : Alive_smt.Solve.reason }
  | Typing_unsupported of string

val check_typing :
  ?budget:Alive_smt.Solve.budget ->
  ?stats:stats ->
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Ast.transform ->
  Typing.env ->
  typing_outcome * stats
(** Check one typing. Accumulates into [stats] when given (the returned
    record shares its [telemetry]); never raises. *)

(** {1 Whole-transform checking} *)

type result = {
  verdict : verdict;
  stats : stats;
  cex_vc : (Typing.env * Vcgen.vc) option;
      (** typing and VC of the counterexample, for rendering *)
}

val run :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  ?budget:Alive_smt.Solve.budget ->
  Ast.transform ->
  result
(** Check every feasible typing sequentially, and {!publish} the result.
    An [Invalid] stops the scan;
    an [Unknown] is remembered but the remaining typings still run, since a
    later definite counterexample outranks it. [precise_pre] selects the
    two-sided reading of precondition predicate calls (see {!Vcgen.run});
    precondition inference relies on it. *)

val check :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  ?budget:Alive_smt.Solve.budget ->
  Ast.transform ->
  verdict
(** [share_memory_reads] selects the §3.3.3 memory encoding variant; see
    {!Vcgen.run}. *)

val typing_queries :
  Vcgen.vc -> (string * Counterexample.kind * Alive_smt.Term.t) list
(** The refinement queries of one typing's VC, in exact scan order: per
    checked name the definedness, poison and value criteria, then the
    memory criterion when present. This is the construction [check_typing]
    solves and [query_digests] fingerprints — the two must agree
    byte-for-byte, so it is factored here. *)

val query_digests :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Ast.transform ->
  (string list list, string) Stdlib.result
(** The content digests ({!Alive_smt.Vc_cache.digest}) of every refinement
    query this transform would solve, one inner list per feasible typing in
    scan order — without invoking the solver. These are exactly the keys
    {!run} files verdicts under in the persistent store, which is what makes
    incremental re-verification ([corpus_check --changed-since]) sound: an
    entry whose digests all have stored verdicts needs no solving. [Error]
    on a type error or an unsupported construct (such entries are always
    re-verified). *)

type query_probe = {
  probe_at : string;  (** instruction name, or ["memory"] for criterion 4 *)
  probe_kind : string;  (** ["defined"], ["poison"], or ["value"] *)
  probe_digest : string;  (** the store key ({!Alive_smt.Vc_cache.digest}) *)
  probe_static : bool;  (** the tier-0 prover discharges it right now *)
  probe_cached : bool;
      (** present in the calling domain's in-memory verdict cache *)
}

val probe_queries :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  ?precise_pre:bool ->
  Ast.transform ->
  (query_probe list list, string) Stdlib.result
(** Verdict provenance for the daemon's [explain] op: the same queries
    {!query_digests} fingerprints, each additionally probed against the
    static prover and this domain's cache — without invoking the solver
    or disturbing any counters. Run it on the same engine pool that
    solves to see the caches solving actually warmed. [Error] on a type
    error or an unsupported construct. *)

type static_summary = {
  static_typings : int;  (** feasible typings examined *)
  static_queries : int;  (** refinement queries examined *)
  static_discharged : int;  (** queries the static prover discharged *)
  static_complete : bool;
      (** every query of every feasible typing was statically proved — the
          transform's validity needs no solver at all *)
}

val static_report :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  Ast.transform ->
  (static_summary, string) Stdlib.result
(** Run only the tier-0 static prover over every refinement query of every
    feasible typing — no SAT, no cache. Powers the golden coverage tests.
    [Error] on a type error or an unsupported construct. *)

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
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  Ast.transform ->
  (static_summary * static_recheck, string) Stdlib.result
(** {!static_report}, and every query tier 0 proves re-solved by the SAT
    solver under {!static_recheck_conflicts} conflicts, past the verdict
    cache. This is how [corpus_check --static-report] checks that tier 0
    never contradicts the solver. *)

val check_with_vc :
  ?widths:int list ->
  ?max_typings:int ->
  ?share_memory_reads:bool ->
  ?budget:Alive_smt.Solve.budget ->
  Ast.transform ->
  verdict * (Typing.env * Vcgen.vc) option
(** Like {!check}, also returning the typing and VC of the counterexample
    (for rendering) when invalid. *)

val render_verdict : Ast.transform -> verdict -> string
(** Human-readable report; for invalid transformations this is the Fig. 5
    counterexample format. *)
