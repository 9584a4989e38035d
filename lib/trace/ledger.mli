(** The cross-run performance ledger.

    Each instrumented run appends one JSON line to a ledger file (by
    convention [bench/ledger*.jsonl]). A record is a snapshot of the
    {!Metrics} registry's change over the run, plus the run's identity and
    a few named figures the registry does not hold. [alive perf diff]
    loads the ledger and compares the newest record against a baseline. *)

type phase_total = { phase : string; count : int; total_s : float }

type budget = { timeout_s : float; conflict_limit : int }
(** Per-query budget the run used; 0 means none. *)

type record = {
  schema : int;
  timestamp : string;  (** ISO-8601 UTC *)
  git_rev : string;
  label : string;
  jobs : int;
  tasks : int;
  budget : budget;
  wall_s : float;
  counters : (string * float) list;
      (** sorted by name: every registry counter's change over the run
          (registry names, e.g. ["solve.conflicts"]), plus the named
          extras the run supplied (e.g. ["opt_match_per_s"], ["infer_s"]) *)
  verdicts : (string * int) list;
  phases : phase_total list;
      (** every histogram that recorded during the run: span phases and
          per-op request latencies *)
}

val schema_version : int

val git_rev : unit -> string
(** Short revision for provenance stamps: [GITHUB_SHA] env, else
    [git rev-parse], else ["unknown"]. Also used by the service verdict
    store. *)

val iso8601 : float -> string
(** Render a [Unix.gettimeofday]-style timestamp as ISO-8601 UTC. *)

val counters_since : Metrics.snapshot -> Metrics.snapshot -> (string * float) list
(** What the registry's counters recorded between two snapshots: totals
    and seconds counters by difference; a peak only where the later value
    is the interval's own peak — it rose, or it started at zero. *)

val make :
  label:string ->
  jobs:int ->
  tasks:int ->
  ?budget:budget ->
  wall_s:float ->
  ?extras:(string * float) list ->
  ?verdicts:(string * int) list ->
  Metrics.snapshot ->
  Metrics.snapshot ->
  record
(** [make ... before after] stamps a record with the current UTC time and
    git revision, suffixed ["-dirty"] when tracked files other than
    [*.jsonl] differ from HEAD (never under [GITHUB_SHA]); its counters are {!counters_since} [before after] plus
    [extras], its phases the histograms' change. A local run snapshots its
    own registry; a run through the daemon scrapes the daemon's. *)

val number : float -> Json.t
(** An integral value as a JSON integer, any other as a float — how
    counters are written. *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result
(** Reads only the current schema; any other is an error. *)

val append : path:string -> record -> unit
(** Append one JSONL line, creating the file if needed. *)

val load : path:string -> (record list, string) result
(** All records, oldest first. *)

(** {1 Diffing} *)

type delta = {
  metric : string;
  base : float option;  (** [None]: the baseline does not carry it *)
  now : float option;  (** [None]: the latest record does not carry it *)
  pct : float;
      (** signed percentage change; +: latest is bigger; nan when one-sided *)
  regressed : bool;  (** only ever set on a gated figure both records carry *)
}

type diff = {
  baseline : record;
  latest : record;
  deltas : delta list;
  regressions : delta list;
}

val diff : ?threshold_pct:float -> baseline:record -> latest:record -> unit -> diff
(** Four figures gate: [wall_s] and ["solve.conflicts"] regress by
    growing more than [threshold_pct] (default 15%), ["opt_match_per_s"]
    and ["opt_firings_per_s"] by dropping more than it. Every other
    counter either record carries is reported, one-sided ones marked, and
    so is each phase total both carry; none of these gate. *)

val render_diff : ?oc:out_channel -> diff -> unit
