(** Thin synchronous client for the [alive serve] daemon.

    One connection carries one request at a time; responses arrive in
    request order. Callers that want parallelism (e.g.
    [alive corpus verify --via]) open one connection per worker thread. Not
    thread-safe per handle. *)

module Json = Alive_trace.Json

type t

val connect : string -> (t, string) result
(** Connect to the daemon's Unix socket at the given path. *)

val close : t -> unit

val call :
  t ->
  op:string ->
  ?rid:string ->
  ?args:Json.t ->
  unit ->
  (Json.t, string) result
(** One round-trip: send the request, block for its response, unwrap
    [result]/[error]. [rid] is the request id the daemon stamps on every
    span, log line, and slow-query record of this request; the daemon
    generates one when absent. *)

(** {1 Convenience wrappers} *)

val ping : t -> (Json.t, string) result
val shutdown : t -> (Json.t, string) result
val metrics : t -> (Json.t, string) result

val metrics_prom : t -> (string, string) result
(** The daemon's instruments in Prometheus text exposition format
    (unwrapped from the response envelope). *)

val store_stats : t -> (Json.t, string) result

val explain :
  t ->
  ?rid:string ->
  ?name:string ->
  ?widths:int list ->
  text:string ->
  unit ->
  (Json.t, string) result
(** Verdict provenance for the transformations in [text]: per refinement
    query, the tier the live path would decide it with (static / cache /
    store / smt) and the stored record (origin, solver cost, git rev,
    budget, timestamp) when the store holds one. Solves nothing. *)

val explain_digest : t -> ?rid:string -> string -> (Json.t, string) result
(** Provenance of one store digest. *)

val trace_dump : t -> (Json.t, string) result
(** The daemon's rolling span ring as a Chrome-trace JSON object. *)

val verify :
  t ->
  ?rid:string ->
  ?name:string ->
  ?widths:int list ->
  ?timeout:float ->
  ?conflict_limit:int ->
  ?spans:bool ->
  text:string ->
  unit ->
  (Json.t, string) result
(** Verify the transformations in [text] (restricted to [name] if given)
    on the daemon's pool, through its verdict store. With [spans], the
    response wraps the verdicts as [{"results": ..., "spans": ...}] where
    [spans] is the request's span tree. *)

val parse : t -> text:string -> (Json.t, string) result
val lint : t -> text:string -> (Json.t, string) result

val digests :
  t ->
  ?name:string ->
  ?widths:int list ->
  text:string ->
  unit ->
  (Json.t, string) result
(** Canonical query digests (the verdict-store keys) of every typing of the
    transformations in [text] in the width domain [widths] (the daemon's
    default without it), without solving anything. *)

val infer_pre :
  t ->
  ?name:string ->
  ?widths:int list ->
  ?timeout:float ->
  ?conflict_limit:int ->
  text:string ->
  unit ->
  (Json.t, string) result
(** Infer a precondition for each transformation in [text] from scratch,
    typing it in the width domain [widths] (the daemon's default without
    it). *)
