(** Process-wide metrics registry: named counters and log-scale latency
    histograms (quarter-power-of-two buckets, so percentile estimates
    carry at most ~9% relative error).

    Instruments are created-or-found by name; observation through the
    returned handle is cheap (one mutex per histogram, one atomic per
    counter) and safe from any domain. The per-phase histograms that back
    [--metrics] output are fed automatically by {!Trace} span durations
    whenever {!set_phase_timing} is on. *)

(** {1 The phase-timing switch} *)

val set_phase_timing : bool -> unit
(** Enable/disable routing of span durations into per-phase histograms.
    Off (the default), an instrumented code path costs one atomic load per
    span site. *)

val phase_timing_on : unit -> bool

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find or register the histogram with this name.
    @raise Invalid_argument if the name is registered as a counter. *)

val observe : histogram -> float -> unit
(** Record one observation (seconds; negative values clamp to 0). *)

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0..100], estimated from the log-scale
    buckets and clamped to the observed min/max. 0 when empty. *)

val observe_phase : string -> float -> unit
(** [observe (histogram phase) dur] — the span-finish hot path. *)

(** {1 Counters}

    A counter is one atomic int. A total, found or registered by
    {!counter}, grows by {!add}. Peaks (high-water marks) and seconds
    counters (durations held as integer nanoseconds, reported in seconds)
    are the rows of a {!Table} that merge by [Max] and [Sum_seconds]. *)

type counter

val counter : string -> counter
(** Find or register the total with this name.
    @raise Invalid_argument if the name is registered as anything else. *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

(** {1 Gauges}

    Point-in-time levels (queue depth, open connections, live store keys):
    set or moved up and down, reported at their current value rather than
    accumulated. *)

type gauge

val gauge : string -> gauge
(** Find or register the gauge with this name.
    @raise Invalid_argument if the name is registered as something else. *)

val set_gauge : gauge -> int -> unit
val add_gauge : gauge -> int -> unit
(** Move the level by a (possibly negative) delta. *)

(** {1 Counter tables}

    A record of counters is declared once, as a list of rows. A row gives
    one field a report name ([--stats], the JSON reports, the daemon's
    responses), a registry name (Prometheus, the ledger), a merge rule
    and an accessor. Merging, printing, JSON and publication are folds
    over the rows, so a new counter is a record field and one row. *)

module Table : sig
  type _ merge =
    | Sum : int merge  (** a total *)
    | Max : int merge  (** a high-water mark, exported as a gauge *)
    | Sum_seconds : float merge  (** a duration *)

  type 'r row
  (** One counter of a record of type ['r]. *)

  val row :
    string -> string -> 'a merge -> ('r -> 'a) -> ('r -> 'a -> unit) -> 'r row
  (** [row report registry merge get set]. The registry instrument is
      registered at once, so every row exports (at zero) from the first
      scrape. *)

  val via : ('r -> 's) -> 's row -> 'r row
  (** The same counter, in a record reached through [('r -> 's)]. *)

  val merge : 'r row list -> into:'r -> 'r -> unit
  (** Add every row of a record into [into]: a sum, or the larger value. *)

  val publish : 'r row list -> 'r -> unit
  (** Add a finished unit of work to the registry. Publish each record
      once, when its work is done. *)

  type value = Count of int | Seconds of float

  val report : 'r row list -> 'r -> (string * value) list
  (** Every row's report name and value, in table order. *)

  val names : 'r row list -> (string * string) list
  (** Every row's report name and registry name, in table order. *)

  val pp : ?nonzero:bool -> 'r row list -> Format.formatter -> 'r -> unit
  (** Space-separated [report=value] pairs, seconds to the millisecond;
      with [nonzero], only the rows that are not zero. *)

  val json_fields : 'r row list -> 'r -> (string * Json.t) list
  (** {!report} as JSON fields: integers, or seconds as floats. *)
end

(** {1 Snapshots} *)

type hist_snapshot = {
  name : string;
  count : int;
  total_s : float;
  min_s : float;
  max_s : float;
  p50_s : float;
  p90_s : float;
  p95_s : float;
  p99_s : float;
}

type snapshot = {
  counters : (string * int) list;  (** totals, sorted by name *)
  seconds : (string * float) list;  (** seconds counters, sorted by name *)
  peaks : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : hist_snapshot list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val snapshot_of_json : Json.t -> snapshot
(** Read back what {!to_json} wrote — a registry scraped from another
    process, such as the daemon's [metrics] op. Missing sections read as
    empty. *)

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid). *)

val render_table : ?oc:out_channel -> unit -> unit
(** Human-readable per-phase table: count, total, p50/p90/p95/max. *)

val to_json : unit -> Json.t
(** [{"histograms": {phase: {count, total_s, p50_s, ...}}, "counters":
    {...}, "seconds": {...}, "peaks": {...}, "gauges": {...}}] — only
    histograms with observations are included. *)

val render_prometheus : unit -> string
(** The whole registry in Prometheus text exposition format. Totals and
    seconds counters become [alive_<name>_total] counters, peaks and gauges
    [alive_<name>] gauges, histograms emit
    sparse cumulative [_bucket{le="..."}] lines (one per occupied
    log-scale bucket, closed by [+Inf]) plus [_sum]/[_count]. Dots in
    instrument names map to underscores. *)
