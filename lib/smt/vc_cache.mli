(** Per-domain cache of verification-condition verdicts, keyed by the
    canonicalized (alpha-renamed) formula and its existential variable set,
    optionally backed by a persistent on-disk verdict store.

    Alpha-equivalent queries share one entry; the same pattern at a
    different bit width canonicalizes to a different term (sorts live in
    the variables) and stays distinct. Each engine worker domain owns its
    own table — no cross-domain contention, mirroring the trace-buffer
    design — so a [Memory] hit is always a query this domain solved (or
    adopted) earlier. When a {!backing} is installed, in-memory misses fall
    through to it by content {!digest}, and solved verdicts are published
    back, which is how the [lib/service] store turns the cache into a
    cross-process, cross-run architecture.

    Only definite verdicts ([`Valid] / [`Invalid]) are cached; [`Unknown]
    is budget-dependent. Counterexample models are stored canonically and
    renamed into the requesting query's variables on a hit. Hits, misses,
    evictions, and store hits/misses count into the caller's
    {!Solve.telemetry}, which publishes them as the ["vc_cache.*"]
    counters. *)

type keyed
(** A canonicalized query: cache key plus the variable renaming needed to
    translate models in and out of the canonical namespace. *)

val canon : exists:(string * Term.sort) list -> Term.t -> keyed
(** Canonicalize a query. [exists] names the existential variables (as in
    {!Solve.check_valid_ef}); ones not free in the formula are ignored. *)

val digest : keyed -> string
(** A process-independent content key: the MD5 (hex) of a DAG
    serialization ({!serialization}) of the canonical term plus the
    canonical existential names. Stable across runs, machines, and
    hash-consing insertion order — the key the persistent store files
    verdicts under. Memoized. *)

val serialization : keyed -> string
(** The exact bytes {!digest} hashes — one line per distinct subterm of
    the canonical term, children as back-references. For debugging digest
    mismatches and the determinism tests. *)

type hit_source = Memory | Backing
(** Where a {!find} hit came from: this domain's table, or the persistent
    backing (which the entry is then adopted into). *)

val find :
  telemetry:Solve.telemetry ->
  keyed ->
  ([ `Valid | `Invalid of Model.t ] * hit_source) option
(** Look up this domain's cache, then the backing (if installed). On
    [`Invalid] the model is already renamed back to the query's own
    variable names. Counts the hit or miss, the store hit or miss, and an
    eviction caused by adopting a store hit into [telemetry]. *)

val probe : keyed -> hit_source option
(** Where {!find} would answer from right now — this domain's table, then
    the backing — without counting anything or adopting a backing entry:
    a side-effect-free probe for verdict provenance ([explain]). *)

val store :
  telemetry:Solve.telemetry ->
  ?cost:Solve.cost ->
  keyed ->
  [ `Valid | `Invalid of Model.t ] ->
  unit
(** Record a definite verdict, counting an eviction into [telemetry].
    Storing an already-present key is a no-op. When a backing is
    installed the verdict is also published to it, with [cost] (what the
    solver spent deciding this query) recorded as provenance. *)

(** {1 Persistent backing} *)

type backing = {
  lookup : string -> [ `Valid | `Invalid of Model.t ] option;
      (** consulted on in-memory misses, keyed by {!digest}; models are in
          the canonical namespace *)
  publish :
    string ->
    cost:Solve.cost option ->
    [ `Valid | `Invalid of Model.t ] ->
    unit;
      (** fed every definite verdict this process solves *)
}

val set_backing : backing option -> unit
(** Install (or remove) the persistent layer. Call before workers start;
    the slot is atomic but the callbacks must themselves be thread-safe —
    every worker domain calls them. *)

(** {1 Switches} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Global on/off switch (an atomic; default on). When off, callers skip
    the cache entirely — [find]/[store] themselves do not check it. *)

val set_capacity : int -> unit
(** Per-domain entry budget (default 8192). Oldest entries are evicted
    first (FIFO). *)

val clear : unit -> unit
(** Empty every domain's table (not the backing). Call only while no
    worker is verifying — intended for A/B benchmarking and tests. *)
