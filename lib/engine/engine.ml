(* Domain-based parallel verification scheduler.

   Two levels of fan-out, matching where the work actually is:

   - [verify_corpus] schedules whole transformations over the pool: the
     corpus has hundreds of independent entries, far more than cores, so
     transform granularity keeps stats attribution simple and the pool full.
   - [check_parallel] fans the feasible typings of a single transformation
     out over the pool — the shape of a single `alive verify` invocation,
     where one transform can have dozens of typings.

   Every task is fault-isolated: an exception (or a budget exhaustion deep
   in the solver) degrades that one task to an [Error]/[Unknown] result
   instead of killing the batch. Workers only share the hash-consing table
   (serialized inside [Term]); every solver context is task-local. *)

module Refine = Alive.Refine
module Trace = Alive_trace.Trace

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* --- Generic fault-isolated pool --- *)

type task_error = { message : string; backtrace : string }

let pp_task_error ppf e =
  Format.pp_print_string ppf e.message;
  if e.backtrace <> "" then
    String.split_on_char '\n' e.backtrace
    |> List.iter (fun line ->
           if line <> "" then Format.fprintf ppf "@\n  %s" line)

type 'b outcome = {
  index : int;
  label : string;
  result : ('b, task_error) result;
      (* [Error]: the task raised; text of exn + backtrace *)
  elapsed : float;
}

let run_one ~index ~label f x =
  let t0 = Unix.gettimeofday () in
  let result =
    (* The "task" span is the per-item root: everything the worker does for
       this item (parse, typing, vcgen, solving) nests under it on the
       worker's own trace row. *)
    Trace.with_span
      ~meta:[ ("name", Trace.Str label); ("index", Trace.Int index) ]
      "task"
      (fun () ->
        try Ok (f x)
        with e ->
          (* Capture the raw backtrace before anything else runs — the next
             allocation or exception would clobber it. *)
          let bt = Printexc.get_raw_backtrace () in
          Error
            {
              message = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
            })
  in
  { index; label; result; elapsed = Unix.gettimeofday () -. t0 }

let map ?jobs ?on_outcome ~label f items =
  (* Fault isolation is only debuggable if the runtime records backtraces;
     flip it on for the whole process rather than losing them silently. *)
  if not (Printexc.backtrace_status ()) then Printexc.record_backtrace true;
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = max 1 (min n (Option.value jobs ~default:(default_jobs ()))) in
  let results = Array.make n None in
  let emit_lock = Mutex.create () in
  let emit o =
    match on_outcome with
    | None -> ()
    | Some k ->
        Mutex.lock emit_lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock emit_lock) (fun () -> k o)
  in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let x = items.(i) in
        let o = run_one ~index:i ~label:(label x) f x in
        results.(i) <- Some o;
        emit o;
        loop ()
      end
    in
    loop ()
  in
  if jobs = 1 then worker ()
  else begin
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end;
  Array.to_list (Array.map Option.get results)

(* --- Persistent request-level pool ---

   [map] spins domains up per batch, which is right for one-shot CLI runs
   but wrong for a daemon: domain spawn costs milliseconds and the service
   wants request latency in that range. A [Pool.t] keeps [jobs] worker
   domains alive across requests, fed from one locked queue; each submitted
   thunk resolves a future. Faults stay isolated: a raising thunk fails its
   own future (same [task_error] shape as [map]) and the worker survives. *)

module Pool = struct
  type t = {
    queue : (unit -> unit) Queue.t;
    lock : Mutex.t;
    work_ready : Condition.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t array;
    depth : int Atomic.t; (* queued, not yet picked up *)
    pool_jobs : int;
  }

  type 'a future = {
    flock : Mutex.t;
    fcond : Condition.t;
    mutable cell : ('a, task_error) result option;
  }

  let jobs p = p.pool_jobs
  let depth p = Atomic.get p.depth

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.lock;
      while Queue.is_empty pool.queue && not pool.stopping do
        Condition.wait pool.work_ready pool.lock
      done;
      let job =
        if Queue.is_empty pool.queue then None
        else Some (Queue.pop pool.queue)
      in
      Mutex.unlock pool.lock;
      match job with
      | None -> () (* stopping and drained *)
      | Some j ->
          Atomic.decr pool.depth;
          j ();
          loop ()
    in
    loop ()

  let create ?jobs:j () =
    if not (Printexc.backtrace_status ()) then Printexc.record_backtrace true;
    let pool_jobs = max 1 (Option.value j ~default:(default_jobs ())) in
    let pool =
      {
        queue = Queue.create ();
        lock = Mutex.create ();
        work_ready = Condition.create ();
        stopping = false;
        domains = [||];
        depth = Atomic.make 0;
        pool_jobs;
      }
    in
    pool.domains <- Array.init pool_jobs (fun _ -> Domain.spawn (worker pool));
    pool

  let submit ?ctx pool f =
    let fut = { flock = Mutex.create (); fcond = Condition.create (); cell = None } in
    (* Bind the submitting request's trace context on the worker domain, so
       the task's spans and logs carry the request id across the pool hop. *)
    let f =
      match ctx with
      | None -> f
      | Some c -> fun () -> Trace.with_context c f
    in
    let job () =
      let result =
        try Ok (f ())
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Error
            {
              message = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
            }
      in
      Mutex.lock fut.flock;
      fut.cell <- Some result;
      Condition.broadcast fut.fcond;
      Mutex.unlock fut.flock
    in
    Mutex.lock pool.lock;
    if pool.stopping then begin
      Mutex.unlock pool.lock;
      invalid_arg "Engine.Pool.submit: pool is shut down"
    end;
    Queue.push job pool.queue;
    Atomic.incr pool.depth;
    Condition.signal pool.work_ready;
    Mutex.unlock pool.lock;
    fut

  let await fut =
    Mutex.lock fut.flock;
    while fut.cell = None do
      Condition.wait fut.fcond fut.flock
    done;
    let r = Option.get fut.cell in
    Mutex.unlock fut.flock;
    r

  let run ?ctx pool f = await (submit ?ctx pool f)

  let shutdown pool =
    Mutex.lock pool.lock;
    if not pool.stopping then begin
      pool.stopping <- true;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.lock;
      Array.iter Domain.join pool.domains
    end
    else Mutex.unlock pool.lock
end

(* --- Per-typing fan-out inside one transformation --- *)

(* Refine's scan with the typings checked on the pool; a crashed task
   counts as an unsupported typing. *)
let check_parallel ?jobs ?widths ?budget (t : Alive.Ast.transform) =
  Refine.scan ~widths t (fun typings ->
      map ?jobs ~label:(fun _ -> t.name) (Refine.check_typing ?budget t) typings
      |> List.map (fun o ->
             match o.result with
             | Ok checked -> checked
             | Error e ->
                 ( Refine.Typing_unsupported ("task crashed: " ^ e.message),
                   Refine.empty_stats () )))

(* --- Corpus-level scheduling --- *)

type task = {
  task_name : string;
  widths : int list option;
  prepare : unit -> Alive.Ast.transform;
      (* runs on the worker, so parse errors are fault-isolated too *)
}

type task_result = {
  name : string;
  outcome : (Refine.result, task_error) result;
  elapsed : float;  (* wall seconds on the worker, including parsing *)
}

type report = {
  results : task_result list;  (* in task order *)
  total : Refine.stats;  (* summed over completed tasks *)
  crashed : int;
  wall : float;
  jobs : int;
}

let verify_corpus ?jobs ?budget ?on_result tasks =
  let jobs = Option.value jobs ~default:(default_jobs ()) in
  let t0 = Unix.gettimeofday () in
  let to_result (o : Refine.result outcome) =
    { name = o.label; outcome = Result.map Fun.id o.result; elapsed = o.elapsed }
  in
  let on_outcome =
    Option.map (fun k -> fun o -> k (to_result o)) on_result
  in
  let outcomes =
    map ~jobs ?on_outcome
      ~label:(fun task -> task.task_name)
      (fun task ->
        let t = task.prepare () in
        Refine.run ?widths:task.widths ?budget t)
      tasks
  in
  let results = List.map to_result outcomes in
  let total = Refine.empty_stats () in
  let crashed =
    List.fold_left
      (fun crashed r ->
        match r.outcome with
        | Ok res ->
            Refine.merge_stats ~into:total res.Refine.stats;
            crashed
        | Error _ -> crashed + 1)
      0 results
  in
  { results; total; crashed; wall = Unix.gettimeofday () -. t0; jobs }

(* --- Reporting --- *)

let verdict_name (r : task_result) =
  match r.outcome with
  | Error _ -> "crash"
  | Ok res -> Refine.verdict_name res.Refine.verdict

let print_table ?(oc = stdout) report =
  (* Column widths are computed from the data so long transform names don't
     shear the columns out of alignment. Each row ends with the task's
     non-zero counters. *)
  let row r =
    match r.outcome with
    | Ok res ->
        Format.asprintf "%a"
          (Alive_trace.Metrics.Table.pp ~nonzero:true Refine.table)
          res.Refine.stats
    | Error _ -> ""
  in
  let rows = List.map (fun r -> (r, row r)) report.results in
  let name_w =
    List.fold_left
      (fun w (r, _) -> max w (String.length r.name))
      (String.length "transform") rows
  in
  let verdict_w =
    List.fold_left
      (fun w (r, _) -> max w (String.length (verdict_name r)))
      (String.length "verdict") rows
  in
  Printf.fprintf oc "%-*s  %-*s  %8s  %s\n" name_w "transform" verdict_w
    "verdict" "time(s)" "counters";
  List.iter
    (fun (r, counters) ->
      Printf.fprintf oc "%-*s  %-*s  %8.3f  %s\n" name_w r.name verdict_w
        (verdict_name r) r.elapsed counters)
    rows;
  Printf.fprintf oc
    "total: %d tasks (%d crashed), wall %.2fs with %d job(s); %s\n"
    (List.length report.results)
    report.crashed report.wall report.jobs
    (Format.asprintf "%a" Refine.pp_stats report.total)

let stats_fields (s : Refine.stats) =
  ("elapsed_s", Json.Float s.Refine.elapsed)
  :: Alive_trace.Metrics.Table.json_fields Refine.table s

let stats_json s = Json.Obj (stats_fields s)

let report_json report =
  Json.Obj
    [
      ("jobs", Json.Int report.jobs);
      ("wall_s", Json.Float report.wall);
      ("tasks", Json.Int (List.length report.results));
      ("crashed", Json.Int report.crashed);
      ("total", stats_json report.total);
      ( "results",
        Json.List
          (List.map
             (fun r ->
               let base =
                 [
                   ("name", Json.String r.name);
                   ("verdict", Json.String (verdict_name r));
                   ("elapsed_s", Json.Float r.elapsed);
                 ]
               in
               let extra =
                 match r.outcome with
                 | Ok res -> [ ("stats", stats_json res.Refine.stats) ]
                 | Error e ->
                     [
                       ("error", Json.String e.message);
                       ("backtrace", Json.String e.backtrace);
                     ]
               in
               Json.Obj (base @ extra))
             report.results) );
    ]
