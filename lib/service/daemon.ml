(* The `alive serve` daemon: verification as a service over a Unix-domain
   socket.

   Threading model (OCaml 5 domains + systhreads):
   - the calling thread runs the accept loop, polling a stop flag between
     [Unix.select] rounds so SIGINT/SIGTERM turn into a clean shutdown;
   - each connection gets a systhread that reads frames and answers them in
     order — connection threads only parse, marshal, and block, so hundreds
     are cheap;
   - solver work (verify, infer-pre) is submitted to a persistent
     [Engine.Pool] of worker domains and awaited on the connection thread,
     which is where the parallelism actually lives. Parse and lint requests
     are answered inline: they are microseconds, not worth a pool hop.

   Every worker domain sees the daemon's verdict store through the
   [Vc_cache] backing, so verdicts accumulate across requests, connections,
   and daemon restarts. Shutdown (signal, or the "shutdown" op) stops
   accepting, wakes the connection threads by closing their sockets, drains
   the pool, compacts the store, and removes the socket file. *)

module Json = Alive_trace.Json
module Metrics = Alive_trace.Metrics
module Trace = Alive_trace.Trace
module Log = Alive_trace.Log
module Engine = Alive_engine.Engine

type config = {
  socket_path : string;
  store_dir : string option;
  jobs : int option;
  compact_on_exit : bool;
  log : out_channel option;  (* human request log; None = quiet *)
  structured_log : out_channel option;  (* JSONL log (Alive_trace.Log) *)
  log_level : Log.level;
  slow_log : out_channel option;  (* JSONL slow-query log *)
  slow_query_ms : float;  (* threshold; 0 disables slow-query accounting *)
}

let default_config ~socket_path =
  {
    socket_path;
    store_dir = None;
    jobs = None;
    compact_on_exit = true;
    log = None;
    structured_log = None;
    log_level = Log.Info;
    slow_log = None;
    slow_query_ms = 500.0;
  }

(* --- Metrics --- *)

let m_requests = Metrics.counter "service.requests"
let m_errors = Metrics.counter "service.errors"
let m_slow = Metrics.counter "service.slow_queries"
let g_queue = Metrics.gauge "service.queue_depth"
let g_connections = Metrics.gauge "service.connections"
let g_inflight = Metrics.gauge "service.inflight"
let h_request = Metrics.histogram "service.request_s"

(* Per-op request counters and latency histograms, found-or-created in the
   registry: one mutexed lookup each per request. *)
let op_counter op = Metrics.counter ("service.requests." ^ op)
let op_histogram op = Metrics.histogram ("service.request_s." ^ op)

(* --- Shared daemon state --- *)

type t = {
  config : config;
  pool : Engine.Pool.t;
  store : Store.t option;
  started_at : float;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, Thread.t) Hashtbl.t;
  conns_lock : Mutex.t;
}

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      match t.config.log with
      | None -> ()
      | Some oc ->
          Printf.fprintf oc "[serve] %s\n" s;
          flush oc)
    fmt

(* --- Request arguments --- *)

let arg_str args k = Option.bind (Json.member k args) Json.to_str

let arg_text args =
  match arg_str args "text" with
  | Some s -> Ok s
  | None -> Error "missing required string argument \"text\""

let arg_budget args =
  let timeout = Option.bind (Json.member "timeout" args) Json.to_float in
  let conflict_limit = Option.bind (Json.member "conflicts" args) Json.to_int in
  match (timeout, conflict_limit) with
  | None, None -> None
  | _ -> Some (Alive_smt.Solve.budget ?timeout ?conflict_limit ())

let arg_widths args =
  Option.bind (Json.member "widths" args) (fun j ->
      Option.map
        (List.filter_map Json.to_int)
        (Json.to_list j))

let parse_transforms args =
  match arg_text args with
  | Error _ as e -> e
  | Ok text -> (
      match Alive.Parser.parse_file_diag text with
      | Ok ts -> (
          match arg_str args "name" with
          | None -> Ok ts
          | Some name -> (
              match
                List.filter (fun (t : Alive.Ast.transform) -> t.name = name) ts
              with
              | [] -> Error (Printf.sprintf "no transform named %S in text" name)
              | ts -> Ok ts))
      | Error d -> Error (Alive.Diagnostics.render d))

(* --- Handlers --- *)

(* The verdict, then the same per-check stats an engine JSON report
   carries: every row of [Refine.table] by report name. *)
let verdict_json (r : Alive.Refine.result) =
  Json.Obj
    (("verdict", Json.String (Alive.Refine.verdict_name r.verdict))
    :: ( "detail",
         Json.String (Format.asprintf "%a" Alive.Refine.pp_verdict r.verdict) )
    :: Engine.stats_fields r.stats)

let handle_ping t =
  Ok
    (Json.Obj
       [
         ("pong", Json.Bool true);
         ("pid", Json.Int (Unix.getpid ()));
         ("rev", Json.String (Alive_trace.Ledger.git_rev ()));
         ("jobs", Json.Int (Engine.Pool.jobs t.pool));
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ("store", Json.Bool (t.store <> None));
       ])

let handle_parse args =
  match parse_transforms args with
  | Error e -> Error e
  | Ok ts ->
      Ok
        (Json.Obj
           [
             ("count", Json.Int (List.length ts));
             ( "transforms",
               Json.List
                 (List.map
                    (fun (tr : Alive.Ast.transform) -> Json.String tr.name)
                    ts) );
           ])

let handle_lint args =
  match parse_transforms args with
  | Error e -> Error e
  | Ok ts -> Ok (Alive_lint.Driver.to_json (Alive_lint.Driver.lint_transforms ts))

(* Awaiting the pool future blocks only this connection's thread. [ctx]
   rides along so the task's spans carry the request id. *)
let on_pool ?ctx t f =
  match Engine.Pool.run ?ctx t.pool f with
  | Ok v -> v
  | Error (e : Engine.task_error) -> Error ("task crashed: " ^ e.message)

let handle_verify ?ctx t args =
  match parse_transforms args with
  | Error e -> Error e
  | Ok ts -> (
      let budget = arg_budget args and widths = arg_widths args in
      match
        on_pool ?ctx t (fun () ->
            Ok
              (List.map
                 (fun (tr : Alive.Ast.transform) ->
                   (tr, Alive.Refine.run ?widths ?budget tr))
                 ts))
      with
      | Error e -> Error e
      | Ok results ->
          Ok
            (Json.List
               (List.map
                  (fun ((tr : Alive.Ast.transform), r) ->
                    match verdict_json r with
                    | Json.Obj fields ->
                        Json.Obj (("name", Json.String tr.name) :: fields)
                    | j -> j)
                  results)))

let handle_infer_pre ?ctx t args =
  match parse_transforms args with
  | Error e -> Error e
  | Ok ts ->
      let budget = arg_budget args and widths = arg_widths args in
      on_pool ?ctx t (fun () ->
          Ok
            (Json.List
               (List.map
                  (fun (tr : Alive.Ast.transform) ->
                    let o = Alive_infer.Infer.infer ?widths ?budget tr in
                    Json.Obj
                      [
                        ("name", Json.String o.transform);
                        ( "pre",
                          match o.inferred with
                          | Some p ->
                              Json.String
                                (Format.asprintf "%a" Alive.Ast.pp_pred p)
                          | None -> Json.Null );
                        ("rounds", Json.Int o.rounds);
                        ("validations", Json.Int o.validations);
                        ("note", Json.String o.note);
                        ("elapsed_s", Json.Float o.elapsed);
                      ])
                  ts)))

let handle_digests args =
  match parse_transforms args with
  | Error e -> Error e
  | Ok ts ->
      let widths = arg_widths args in
      Ok
        (Json.List
           (List.map
              (fun (tr : Alive.Ast.transform) ->
                match Alive.Refine.query_digests ?widths tr with
                | Ok typings ->
                    Json.Obj
                      [
                        ("name", Json.String tr.name);
                        ( "typings",
                          Json.List
                            (List.map
                               (fun ds ->
                                 Json.List
                                   (List.map (fun d -> Json.String d) ds))
                               typings) );
                      ]
                | Error e ->
                    Json.Obj
                      [
                        ("name", Json.String tr.name);
                        ("error", Json.String e);
                      ])
              ts))

let handle_store_stats t =
  match t.store with
  | None -> Error "daemon is running without a store"
  | Some s -> Ok (Store.stats_json s)

(* Point-in-time levels refreshed at scrape time, so a scrape always sees
   current uptime/queue/store sizes rather than whatever the last request
   happened to leave behind. *)
let refresh_gauges t =
  Metrics.set_gauge
    (Metrics.gauge "service.uptime_s")
    (int_of_float (Unix.gettimeofday () -. t.started_at));
  Metrics.set_gauge g_queue (Engine.Pool.depth t.pool);
  match t.store with
  | None -> ()
  | Some s ->
      let st = Store.stats s in
      Metrics.set_gauge (Metrics.gauge "store.segments") st.segments;
      Metrics.set_gauge (Metrics.gauge "store.bytes") st.bytes;
      Metrics.set_gauge (Metrics.gauge "store.live") st.live

let handle_metrics_prom t =
  refresh_gauges t;
  Ok
    (Json.Obj
       [
         ("content_type", Json.String "text/plain; version=0.0.4");
         ("text", Json.String (Metrics.render_prometheus ()));
       ])

(* --- Verdict provenance (the explain op) --- *)

(* What originally decided a stored verdict, from its cost record. *)
let origin_of (e : Store.entry) =
  Alive.Refine.tier_name
    (match e.cost with Some c when c.static -> Static | _ -> Smt)

let handle_explain ?ctx t args =
  match arg_str args "digest" with
  | Some digest -> (
      (* Digest form: provenance straight from the store. *)
      match t.store with
      | None -> Error "daemon is running without a store"
      | Some s -> (
          match Store.lookup s digest with
          | None ->
              Ok
                (Json.Obj
                   [ ("digest", Json.String digest); ("found", Json.Bool false) ])
          | Some e ->
              Ok
                (Json.Obj
                   [
                     ("digest", Json.String digest);
                     ("found", Json.Bool true);
                     ("origin", Json.String (origin_of e));
                     ("store", Store.entry_json digest e);
                   ])))
  | None -> (
      (* Entry form: probe every refinement query the transform would
         solve. The probe runs on the engine pool so it sees the same
         domain-local caches that solving warmed (exact with one worker;
         with more, a cache-tier answer may be attributed to a sibling
         worker's tier). *)
      match parse_transforms args with
      | Error e -> Error e
      | Ok ts -> (
          let widths = arg_widths args in
          match
            on_pool ?ctx t (fun () ->
                Ok
                  (List.map
                     (fun (tr : Alive.Ast.transform) ->
                       (tr, Alive.Refine.probe_queries ?widths tr))
                     ts))
          with
          | Error e -> Error e
          | Ok probes ->
              let query_json (q : Alive.Refine.query_probe) =
                let provenance =
                  match
                    Option.bind t.store (fun s -> Store.lookup s q.probe_digest)
                  with
                  | None -> [ ("origin", Json.Null) ]
                  | Some e ->
                      [
                        ("origin", Json.String (origin_of e));
                        ("store", Store.entry_json q.probe_digest e);
                      ]
                in
                Json.Obj
                  ([
                     ("at", Json.String q.probe_at);
                     ("kind", Json.String q.probe_kind);
                     ("digest", Json.String q.probe_digest);
                     ("tier", Json.String (Alive.Refine.tier_name q.probe_tier));
                   ]
                  @ provenance)
              in
              Ok
                (Json.List
                   (List.map
                      (fun ((tr : Alive.Ast.transform), pr) ->
                        match pr with
                        | Error e ->
                            Json.Obj
                              [
                                ("name", Json.String tr.name);
                                ("error", Json.String e);
                              ]
                        | Ok typings ->
                            (* The headline tier is the slowest tier any
                               query needs. *)
                            let overall =
                              List.fold_left
                                (fun acc (q : Alive.Refine.query_probe) ->
                                  max acc q.probe_tier)
                                Alive.Refine.Static (List.concat typings)
                            in
                            Json.Obj
                              [
                                ("name", Json.String tr.name);
                                ( "tier",
                                  Json.String (Alive.Refine.tier_name overall)
                                );
                                ( "typings",
                                  Json.List
                                    (List.map
                                       (fun qs ->
                                         Json.List (List.map query_json qs))
                                       typings) );
                              ])
                      probes))))

let handle_trace () =
  Ok (Trace.chrome_json ~events:(Trace.Ring.contents ()) ())

let dispatch ?ctx t op args =
  match op with
  | "ping" -> handle_ping t
  | "parse" -> handle_parse args
  | "lint" -> handle_lint args
  | "verify" -> handle_verify ?ctx t args
  | "infer-pre" -> handle_infer_pre ?ctx t args
  | "digests" -> handle_digests args
  | "metrics" ->
      refresh_gauges t;
      Ok (Metrics.to_json ())
  | "metrics-prom" -> handle_metrics_prom t
  | "explain" -> handle_explain ?ctx t args
  | "trace" -> handle_trace ()
  | "store-stats" -> handle_store_stats t
  | "shutdown" ->
      Atomic.set t.stop true;
      Ok (Json.Obj [ ("stopping", Json.Bool true) ])
  | other -> Error (Printf.sprintf "unknown operation %S" other)

(* --- Slow-query log --- *)

let slow_lock = Mutex.create ()

(* Record outlier requests: request id, op, duration, the VC digests of the
   entry (recomputed — no solving — and only for requests already past the
   threshold), and the result, which for verify carries the tier outcome
   and solver stats. *)
let slow_query t ~rid ~op ~args ~dt result =
  if t.config.slow_query_ms > 0.0 && dt *. 1000.0 >= t.config.slow_query_ms
  then begin
    Metrics.incr m_slow;
    Log.warn ~rid
      ~fields:[ ("op", Json.String op); ("dur_s", Json.Float dt) ]
      "slow query";
    match t.config.slow_log with
    | None -> ()
    | Some oc ->
        let digests =
          match op with
          | "verify" | "infer-pre" | "explain" -> (
              match parse_transforms args with
              | Error _ -> []
              | Ok ts ->
                  let widths = arg_widths args in
                  List.filter_map
                    (fun (tr : Alive.Ast.transform) ->
                      match Alive.Refine.query_digests ?widths tr with
                      | Ok dss ->
                          Some
                            ( tr.name,
                              Json.List
                                (List.map
                                   (fun d -> Json.String d)
                                   (List.concat dss)) )
                      | Error _ -> None)
                    ts)
          | _ -> []
        in
        let line =
          Json.Obj
            ([
               ( "ts",
                 Json.String
                   (Alive_trace.Ledger.iso8601 (Unix.gettimeofday ())) );
               ("rid", Json.String rid);
               ("op", Json.String op);
               ("dur_s", Json.Float dt);
             ]
            @ (if digests = [] then []
               else [ ("digests", Json.Obj digests) ])
            @ [
                (match result with
                | Ok r -> ("result", r)
                | Error e -> ("error", Json.String e));
              ])
        in
        Mutex.lock slow_lock;
        output_string oc (Json.to_string line);
        output_char oc '\n';
        flush oc;
        Mutex.unlock slow_lock
  end

(* --- Connections --- *)

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond j = try Protocol.write_frame oc j with Sys_error _ -> () in
  let rec loop () =
    match Protocol.read_frame ic with
    | Error Protocol.Closed -> ()
    | Error (Protocol.Framing e) ->
        (* The stream is desynchronized; answering would be garbage. *)
        Metrics.incr m_errors;
        logf t "dropping connection: %s" e
    | Error (Protocol.Payload e) ->
        Metrics.incr m_errors;
        respond (Protocol.error_response ~id:Json.Null ("bad request: " ^ e));
        loop ()
    | Ok req -> (
        match Protocol.parse_request req with
        | Error e ->
            Metrics.incr m_errors;
            respond (Protocol.error_response ~id:(Protocol.response_id req) e);
            loop ()
        | Ok (id, op, rid, args) ->
            (* One context per request: client-supplied id or generated.
               Everything the request does — inline handling on this
               thread, pool tasks on worker domains — runs under it, and
               its captured spans feed the response (on request) and the
               rolling trace ring. *)
            let ctx = Trace.Context.make ?rid () in
            let rid = Trace.Context.rid_of ctx in
            Metrics.incr m_requests;
            Metrics.incr (op_counter op);
            Metrics.add_gauge g_inflight 1;
            let t0 = Unix.gettimeofday () in
            let result, spans =
              Trace.with_capture ctx (fun () ->
                  try dispatch ~ctx t op args
                  with e -> Error ("internal error: " ^ Printexc.to_string e))
            in
            let dt = Unix.gettimeofday () -. t0 in
            Metrics.add_gauge g_inflight (-1);
            Metrics.observe h_request dt;
            Metrics.observe (op_histogram op) dt;
            Trace.Ring.append spans;
            (match result with
            | Ok _ ->
                Log.info ~rid
                  ~fields:
                    [ ("op", Json.String op); ("dur_s", Json.Float dt) ]
                  "request"
            | Error e ->
                Log.warn ~rid
                  ~fields:
                    [
                      ("op", Json.String op);
                      ("dur_s", Json.Float dt);
                      ("error", Json.String e);
                    ]
                  "request failed");
            slow_query t ~rid ~op ~args ~dt result;
            let want_spans =
              match Json.member "spans" args with
              | Some (Json.Bool true) -> true
              | _ -> false
            in
            let result =
              match result with
              | Ok r when want_spans ->
                  Ok
                    (Json.Obj
                       [
                         ("results", r);
                         ("spans", Trace.events_json spans);
                       ])
              | r -> r
            in
            (match result with
            | Ok r -> respond (Protocol.ok_response ~id ~rid r)
            | Error e ->
                Metrics.incr m_errors;
                respond (Protocol.error_response ~id ~rid e));
            logf t "%s [%s] -> %s (%.3fs)" op rid
              (match result with Ok _ -> "ok" | Error e -> "error: " ^ e)
              dt;
            if Atomic.get t.stop then () else loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.conns_lock;
      Hashtbl.remove t.conns fd;
      Metrics.set_gauge g_connections (Hashtbl.length t.conns);
      Mutex.unlock t.conns_lock)
    loop

(* --- Lifecycle --- *)

let install_signal_handlers t =
  let stop _ = Atomic.set t.stop true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  (* A client vanishing mid-response must not kill the daemon. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* A stale socket file from a crashed daemon blocks bind; a live daemon's
   socket answers a ping. Refuse only the latter. *)
let claim_socket socket_path =
  if not (Sys.file_exists socket_path) then Ok ()
  else
    match Client.connect socket_path with
    | Ok c ->
        let alive = Result.is_ok (Client.ping c) in
        Client.close c;
        if alive then
          Error (socket_path ^ ": a daemon is already serving this socket")
        else begin
          Sys.remove socket_path;
          Ok ()
        end
    | Error _ ->
        Sys.remove socket_path;
        Ok ()

let serve config =
  let socket_path = config.socket_path in
  Log.set_sink ~level:config.log_level config.structured_log;
  let fail e =
    Log.error ~fields:[ ("error", Json.String e) ] "daemon startup failed";
    Log.set_sink None;
    Error e
  in
  match claim_socket socket_path with
  | Error e -> fail e
  | Ok () -> (
      let store_r =
        match config.store_dir with
        | None -> Ok None
        | Some dir -> Result.map Option.some (Store.open_store dir)
      in
      match store_r with
      | Error e -> fail e
      | Ok store -> (
          let pool = Engine.Pool.create ?jobs:config.jobs () in
          let t =
            {
              config;
              pool;
              store;
              started_at = Unix.gettimeofday ();
              stop = Atomic.make false;
              conns = Hashtbl.create 16;
              conns_lock = Mutex.create ();
            }
          in
          Option.iter Store.install_backing store;
          install_signal_handlers t;
          let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match
            Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
            Unix.listen listen_fd 64
          with
          | exception Unix.Unix_error (e, _, _) ->
              Unix.close listen_fd;
              Engine.Pool.shutdown pool;
              Option.iter Store.close store;
              fail
                (Printf.sprintf "cannot listen on %s: %s" socket_path
                   (Unix.error_message e))
          | () ->
              logf t "listening on %s (%d worker domains, store: %s)"
                socket_path (Engine.Pool.jobs pool)
                (match config.store_dir with Some d -> d | None -> "none");
              Log.info
                ~fields:
                  [
                    ("socket", Json.String socket_path);
                    ("jobs", Json.Int (Engine.Pool.jobs pool));
                    ( "store",
                      match config.store_dir with
                      | Some d -> Json.String d
                      | None -> Json.Null );
                  ]
                "daemon listening";
              (* Accept loop: select with a short timeout so the stop flag
                 (set by a signal handler or the shutdown op) is honored
                 within a quarter second. *)
              let rec accept_loop () =
                if Atomic.get t.stop then ()
                else begin
                  Metrics.set_gauge g_queue (Engine.Pool.depth pool);
                  (match Unix.select [ listen_fd ] [] [] 0.25 with
                  | [], _, _ -> ()
                  | _ :: _, _, _ -> (
                      match Unix.accept listen_fd with
                      | fd, _ ->
                          Mutex.lock t.conns_lock;
                          let th =
                            Thread.create (fun () -> serve_connection t fd) ()
                          in
                          Hashtbl.replace t.conns fd th;
                          Metrics.set_gauge g_connections
                            (Hashtbl.length t.conns);
                          Mutex.unlock t.conns_lock
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
                  accept_loop ()
                end
              in
              accept_loop ();
              logf t "shutting down";
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              (* Wake idle connection threads (blocked in read_frame) by
                 shutting their sockets down, then join them. *)
              let threads =
                Mutex.lock t.conns_lock;
                let l = Hashtbl.fold (fun fd th acc -> (fd, th) :: acc) t.conns [] in
                Mutex.unlock t.conns_lock;
                l
              in
              List.iter
                (fun (fd, _) ->
                  try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
                  with Unix.Unix_error _ -> ())
                threads;
              List.iter (fun (_, th) -> Thread.join th) threads;
              Engine.Pool.shutdown pool;
              Option.iter
                (fun s ->
                  if config.compact_on_exit then Store.compact s;
                  Store.close s)
                store;
              Store.remove_backing ();
              (try Sys.remove socket_path with Sys_error _ -> ());
              logf t "stopped";
              Log.info
                ~fields:
                  [
                    ( "uptime_s",
                      Json.Float (Unix.gettimeofday () -. t.started_at) );
                  ]
                "daemon stopped";
              Log.set_sink None;
              Ok ()))
