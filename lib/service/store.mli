(** The disk-persistent verdict store.

    A directory of append-only, checksummed JSONL segments mapping canonical
    query digests ({!Alive_smt.Vc_cache.digest}) to refinement verdicts,
    with per-verdict provenance (git revision, budget, solver cost,
    timestamp). Survives crashes: a torn final line is dropped on replay
    (and truncated away by the next writer), everything before it is
    intact. Replay is newest-wins, so re-publishing
    a digest supersedes the old verdict; {!compact} collapses history into a
    single fresh segment.

    One writer at a time (a [lock] file, {!Unix.lockf}); any number of
    read-only handles may coexist with it. See [docs/SERVICE.md] for the
    on-disk format. *)

type t

type entry = {
  verdict : [ `Valid | `Invalid of Alive_smt.Model.t ];
      (** model over the canonical ([!cN]) variable names *)
  rev : string;  (** git revision of the run that solved it *)
  budget : string;  (** its budget, as a display string (may be empty) *)
  cost : Alive_smt.Solve.cost option;
      (** what the solver spent deciding this query *)
  timestamp : string;  (** ISO-8601 UTC *)
}

type stats = {
  segments : int;
  bytes : int;  (** on-disk size of all segments *)
  live : int;  (** distinct digests *)
  replayed : int;  (** records read on open, before newest-wins collapse *)
  corrupt : int;  (** non-final lines dropped by checksum or parse *)
  truncated : int;  (** torn final lines dropped (one per killed writer) *)
  appended : int;  (** records this handle published *)
}

val schema_version : int

val open_store : ?readonly:bool -> string -> (t, string) result
(** Open (creating the directory and first segment if needed) and replay.
    [Error] on a held write lock (unless [readonly]), a future schema
    version, or a bad header — never on body corruption, which is counted
    in {!stats} instead. *)

val lookup : t -> string -> entry option

val lookup_verdict :
  t -> string -> [ `Valid | `Invalid of Alive_smt.Model.t ] option

val mem : t -> string -> bool

val publish :
  ?cost:Alive_smt.Solve.cost ->
  t ->
  string ->
  [ `Valid | `Invalid of Alive_smt.Model.t ] ->
  unit
(** Record a verdict under a digest and append it durably (flushed before
    returning). Publishing the verdict kind already held for the digest is
    a no-op. Thread-safe. @raise Invalid_argument on a read-only store. *)

val set_context : ?rev:string -> ?budget:string -> t -> unit
(** Provenance stamped onto subsequently published records. The revision
    defaults to {!Alive_trace.Ledger.git_rev} at open time; the budget
    string defaults to empty. *)

val compact : t -> unit
(** Rewrite the live table as one fresh segment (atomic rename) and delete
    the older segments. Entries are written in sorted digest order, so
    equal tables compact to identical bytes.
    @raise Invalid_argument on a read-only store. *)

val stats : t -> stats
val stats_json : t -> Alive_trace.Json.t

val entry_json : string -> entry -> Alive_trace.Json.t
(** The on-disk JSON of one record under its digest — verdict, model (for
    invalid), solver cost, and provenance (git rev, budget string,
    timestamp). The daemon's [explain] op returns this verbatim. *)

val close : t -> unit
(** Flush, close the active segment, release the write lock. *)

(** {1 Wiring into the solver path} *)

val install_backing : t -> unit
(** Point {!Alive_smt.Vc_cache.set_backing} at this store: worker domains
    consult it on in-memory cache misses and publish every definite verdict
    they solve (unless the store is read-only, in which case publishes are
    dropped). The handle must stay open while installed. *)

val remove_backing : unit -> unit
