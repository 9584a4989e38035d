(** High-level satisfiability and validity interface, including the CEGAR
    loop for the one quantifier alternation Alive needs (existential source
    [undef] under universal inputs, §3.1.2 of the paper).

    Every entry point takes an optional {!budget}. A query that exhausts its
    budget returns an [Unknown]/[`Unknown] verdict carrying the {!reason} —
    it never raises and never hangs — so a scheduler can keep the rest of a
    batch running when one query is pathological. *)

(** {1 Budgets} *)

type reason = Timeout | Conflict_limit | Cegar_limit of int
(** Why a query gave up: its wall-clock deadline passed, its SAT conflict
    allowance ran out, or the CEGAR loop hit its iteration cap (with the
    iteration count). *)

val pp_reason : Format.formatter -> reason -> unit
val reason_to_string : reason -> string

val reason_slug : reason -> string
(** Stable machine-readable tag: ["timeout"], ["conflicts"] or ["cegar"].
    Used in verdict names ([unknown:timeout]), JSON reports and the
    per-reason unknown counters. *)

type budget = {
  timeout : float option;  (** seconds of wall clock, per query *)
  conflict_limit : int option;
      (** SAT conflicts per query, drawn down across all solver calls the
          query makes (the CEGAR rounds share one allowance) *)
  max_cegar : int;  (** CEGAR iteration cap *)
}

val no_budget : budget
(** No deadline, no conflict limit, the historical 2{^16} CEGAR cap. *)

val budget :
  ?timeout:float -> ?conflict_limit:int -> ?max_cegar:int -> unit -> budget

(** {1 Telemetry}

    A [telemetry] record accumulates solver counters across the queries that
    were passed it; create one per unit of reporting (per transformation,
    per run) and sum with {!add_telemetry}.

    Each field but [cubes_spawned] is declared once more, as a row of
    {!table}: its report name, its registry name, its merge rule and its
    accessor. Summing, printing, JSON and publication into the
    {!Alive_trace.Metrics} registry are all derived from that table, so a
    new counter is a record field, its zero in {!telemetry} and one row.
    A query function called without a [telemetry] publishes its own
    record when it returns. *)

type telemetry = {
  mutable checks : int;  (** SAT solver invocations *)
  mutable sat_time : float;  (** wall seconds inside the solver *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable clauses : int;  (** clauses added, summed over the contexts used *)
  mutable vars : int;  (** SAT variables allocated, summed over contexts *)
  mutable peak_clauses : int;
      (** largest single context retired — the per-query encoding footprint
          (merged with [max], not [+]) *)
  mutable peak_vars : int;  (** likewise for variables *)
  mutable cegar_iterations : int;
  mutable cache_hits : int;  (** verdict-cache hits (see {!Vc_cache}) *)
  mutable cache_misses : int;
  mutable cache_evictions : int;
      (** entries pushed out of the cache, by a solved verdict or by an
          adopted store hit *)
  mutable store_hits : int;
      (** persistent verdict-store hits/misses, counted only while a store
          backing is installed (see {!Vc_cache.set_backing}) *)
  mutable store_misses : int;
  mutable static_proved : int;
      (** verification conditions discharged by the tier-0 static prover
          (see [Alive_absint.Prover]) without reaching the SAT solver *)
  mutable cubes_spawned : int;
      (** always 0, and in no report: the field outlived the query
          splitter it counted because perfbench, frozen with the
          benchmark, still reads it *)
  mutable aig_nodes_in : int;
      (** AND-gate requests made to the AIG layer, before rewriting *)
  mutable aig_nodes_out : int;
      (** distinct AIG nodes left after structural hashing/rewriting *)
}

val telemetry : unit -> telemetry
(** A fresh all-zero record. *)

val table : telemetry Alive_trace.Metrics.Table.row list
(** The counter table: one row per field but [cubes_spawned]. *)

val add_telemetry : into:telemetry -> telemetry -> unit
(** [add_telemetry ~into t] merges every counter of [t] into [into]: a
    sum, or the larger value for the two peaks. *)

val counters : (string * string) list
(** Every counter's report name and registry name, in table order. *)

type cost = {
  sat_s : float;
  conflicts : int;
  cegar_iterations : int;
  static : bool;  (** decided by the tier-0 static prover, no SAT solving *)
}
(** What one query cost to decide — provenance for the verdict store. *)

val with_cost : telemetry -> (unit -> 'a) -> 'a * cost
(** Run a solve that records into the given record, and return what it
    spent there. *)

(** {1 Queries}

    Every query takes one path: {!Lower}, then the AIG (unless
    {!Bitblast.set_simplify} turned it off), Tseitin CNF and one CDCL
    call. The CEGAR loop of {!check_valid_ef} keeps one outer context and
    blasts each round's inner instantiation into a fresh context.

    A query's deadline is fixed when the query starts, before its first
    formula is blasted, so lowering and encoding count against the
    timeout: for {!check_sat} and {!is_valid} as for every CEGAR round.

    Before a model is returned, it is evaluated against the formulas
    asserted in its context, as they were before lowering. A model that
    falsifies them raises {!Model_mismatch}. A formula whose evaluation
    reaches a subterm wider than {!Bitvec.max_width} bits cannot be
    evaluated; its model is returned unchecked. *)

exception Model_mismatch of string
(** A SAT model falsified the formula it was found for: a bug in
    lowering, the AIG or the CNF encoding. The message names the context
    (["check_sat"], ["CEGAR outer"] or ["CEGAR inner"]) and the formula's
    content fingerprint. *)

type answer = Sat of Model.t | Unsat | Unknown of reason

val check_sat : ?budget:budget -> ?telemetry:telemetry -> Term.t list -> answer
(** Satisfiability of a conjunction. On [Sat], the model binds every free
    variable of the input. *)

val is_valid :
  ?budget:budget ->
  ?telemetry:telemetry ->
  Term.t ->
  [ `Valid | `Invalid of Model.t | `Unknown of reason ]
(** Validity of a closed-under-universal-quantification formula; on
    [`Invalid] the model is a counterexample. *)

val check_valid_ef :
  ?budget:budget ->
  ?telemetry:telemetry ->
  ?max_iterations:int ->
  exists:(string * Term.sort) list ->
  Term.t ->
  [ `Valid | `Invalid of Model.t | `Unknown of reason ]
(** [check_valid_ef ~exists f] decides [∀O. ∃E. f] where [E] is the given
    variable set and [O] is every other free variable of [f]. Uses
    counterexample-guided expansion of the existential (a finite-domain
    2QBF loop). On [`Invalid], the model binds the universal variables [O]
    such that no choice of [E] satisfies [f].

    [max_iterations] caps the CEGAR loop (default: the budget's
    [max_cegar]); exceeding it reports [`Unknown (Cegar_limit n)] rather
    than raising, as does exhausting the deadline or conflict allowance. *)

val value_to_term : Term.value -> Term.t

(** {1 Dumps} *)

val set_dump_dir : string option -> unit
(** When set, every solver invocation writes its SAT instance to
    [DIR/qNNNNNN-RESULT.cnf] in DIMACS format (level-0 facts plus problem
    clauses) right after it is solved. The directory must exist. Files are
    numbered by a process-wide atomic counter, so parallel runs interleave
    safely. *)

val set_dump_aig_dir : string option -> unit
(** When set (and the AIG pass is on), every solver invocation writes its
    reduced AND-inverter graph to [DIR/qNNNNNN-RESULT.aag] in AIGER ASCII
    format. Shares the query sequence numbers with {!set_dump_dir}, so the
    [.cnf] and [.aag] for one solve carry the same number. *)

val set_cube_runner : ((unit -> unit) list -> unit) option -> unit
(** Does nothing. Every query takes one path, so there is no fan-out hook
    to install; the setter stays because perfbench, frozen with the
    benchmark, calls it. *)
