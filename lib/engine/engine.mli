(** Domain-based parallel verification scheduler (OCaml 5 domains).

    Fans independent SMT query workloads over a worker pool at two
    granularities: whole transformations across a corpus
    ({!verify_corpus}), and the feasible typings inside one transformation
    ({!check_parallel}). Tasks are fault-isolated — an exception or a
    budget exhaustion degrades one task, never the batch — and every task
    carries its own {!Alive.Refine.stats} telemetry.

    Workers share only the hash-consed term table (serialized inside
    [Alive_smt.Term]); each solver context is task-local, so queries scale
    with cores. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

(** {1 Generic fault-isolated pool} *)

type task_error = {
  message : string;  (** the exception text *)
  backtrace : string;
      (** raw backtrace captured at the raise point (may be empty when the
          runtime recorded none) *)
}

val pp_task_error : Format.formatter -> task_error -> unit
(** The message, then the indented backtrace when there is one. *)

type 'b outcome = {
  index : int;  (** position in the input list *)
  label : string;
  result : ('b, task_error) result;
      (** [Error] carries the exception text and backtrace when the task
          raised *)
  elapsed : float;  (** wall seconds on the worker *)
}

val map :
  ?jobs:int ->
  ?on_outcome:('b outcome -> unit) ->
  label:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** Run [f] over the items on [jobs] domains (default
    {!default_jobs}; clamped to the item count). Results come back in input
    order regardless of scheduling. [on_outcome] fires as each task
    finishes, serialized by a mutex, in completion order. With [jobs = 1]
    everything runs on the calling domain. *)

(** {1 Persistent request-level pool}

    {!map} spawns domains per batch — fine for one-shot CLI runs, too slow
    for a daemon serving many small requests. A {!Pool.t} keeps its worker
    domains alive across submissions; the [alive serve] daemon owns one and
    dispatches each request onto it. *)

module Pool : sig
  type t

  type 'a future
  (** A pending result; resolved exactly once by the worker. *)

  val create : ?jobs:int -> unit -> t
  (** Spawn [jobs] (default {!default_jobs}) worker domains, idle until
      work arrives. *)

  val submit : ?ctx:Alive_trace.Trace.Context.t -> t -> (unit -> 'a) -> 'a future
  (** Enqueue a thunk; returns immediately. The thunk runs on some worker
      domain; if it raises, the future resolves to [Error] (same
      {!task_error} shape as {!map}) and the worker survives. Raises
      [Invalid_argument] after {!shutdown}. [ctx] is bound
      ({!Alive_trace.Trace.with_context}) around the thunk on the worker,
      so a daemon request's spans keep its id across the pool hop. *)

  val await : 'a future -> ('a, task_error) result
  (** Block (condition-variable wait, no spinning) until resolved. Safe
      from any thread or domain, and from several at once. *)

  val run : ?ctx:Alive_trace.Trace.Context.t -> t -> (unit -> 'a) -> ('a, task_error) result
  (** [await (submit t f)]. *)

  val depth : t -> int
  (** Jobs queued and not yet picked up by a worker — the daemon's
      queue-depth gauge. *)

  val jobs : t -> int

  val shutdown : t -> unit
  (** Drain the queue (already-submitted jobs still run), then join every
      worker. Idempotent; concurrent [submit]s that lose the race raise. *)
end

(** {1 Per-typing fan-out} *)

val check_parallel :
  ?jobs:int ->
  ?widths:int list ->
  ?budget:Alive_smt.Solve.budget ->
  Alive.Ast.transform ->
  Alive.Refine.result
(** Like {!Alive.Refine.run}, but the feasible typings are checked
    concurrently: {!Alive.Refine.scan} with every typing's
    {!Alive.Refine.check_typing} run on the pool, so the verdict follows
    the sequential scan's rule. A task that raises counts as an
    unsupported typing. *)

(** {1 Corpus-level scheduling} *)

type task = {
  task_name : string;
  widths : int list option;
  prepare : unit -> Alive.Ast.transform;
      (** runs on the worker, so parse errors are fault-isolated too *)
}

type task_result = {
  name : string;
  outcome : (Alive.Refine.result, task_error) result;
  elapsed : float;
}

type report = {
  results : task_result list;  (** in task order *)
  total : Alive.Refine.stats;  (** summed over completed tasks *)
  crashed : int;
  wall : float;
  jobs : int;
}

val verify_corpus :
  ?jobs:int ->
  ?budget:Alive_smt.Solve.budget ->
  ?on_result:(task_result -> unit) ->
  task list ->
  report
(** Verify every task on the pool. [on_result] fires per finished task (in
    completion order, serialized). *)

(** {1 Reporting} *)

val verdict_name : task_result -> string
(** {!Alive.Refine.verdict_name}, or ["crash"] for a task that raised. *)

val print_table : ?oc:out_channel -> report -> unit
(** Per-task stats table plus a totals line. Column widths adapt to the
    longest transform name; each row gives the task's wall time and its
    non-zero counters, and the totals line carries every counter
    ({!Alive.Refine.pp_stats}). *)

val stats_fields : Alive.Refine.stats -> (string * Json.t) list
(** [elapsed_s], then every row of {!Alive.Refine.table} under its report
    name. *)

val stats_json : Alive.Refine.stats -> Json.t
val report_json : report -> Json.t
