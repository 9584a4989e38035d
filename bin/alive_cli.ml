(* The alive command-line tool: verify transformations, render
   counterexamples, infer attributes, and emit C++ — the workflow of the
   paper's prototype, over .opt files in the Alive surface syntax. *)

open Cmdliner
open Cli

let verify_cmd =
  let run file widths quiet jobs timeout conflict_limit show_stats trace
      collapsed metrics no_cache dump_cnf no_aig dump_aig =
    let jobs = resolve_jobs jobs in
    let budget = budget_of ~timeout ~conflict_limit in
    setup_observability ~trace ~collapsed ~metrics;
    setup_solve_path ~no_cache ~no_aig ~dump_cnf ~dump_aig;
    let code =
      with_transforms file (fun transforms ->
          let invalid = ref 0 and unknown = ref 0 in
          List.iter
            (fun t ->
              let result =
                if jobs > 1 then
                  Alive_engine.Engine.check_parallel ~jobs ?widths ?budget t
                else Alive.Refine.run ?widths ?budget t
              in
              (match Alive.Refine.verdict_class result.verdict with
              | `Valid -> ()
              | `Invalid -> incr invalid
              | `Unknown -> incr unknown);
              if quiet then
                Format.printf "%s: %a@." t.Alive.Ast.name
                  Alive.Refine.pp_verdict result.verdict
              else begin
                Format.printf "----------------------------------------@.";
                Format.printf "%a@.@." Alive.Ast.pp_transform t;
                print_endline (Alive.Refine.render_verdict t result.verdict);
                print_newline ()
              end;
              if show_stats then
                Format.printf "stats: %a elapsed=%.3fs@." Alive.Refine.pp_stats
                  result.stats result.stats.elapsed)
            transforms;
          (* 1: a definite failure; 2: nothing failed but some checks were
             undecided within budget — CI can treat those differently. *)
          if !invalid > 0 then 1 else if !unknown > 0 then 2 else 0)
    in
    emit_observability ~trace ~collapsed ~metrics;
    code
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"One line per verdict.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify each transformation for all feasible types, printing \
          counterexamples for incorrect ones. Exit 1 if any transformation \
          is invalid, 2 if none is invalid but some could not be decided \
          within budget."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"a transformation failed verification."
         :: Cmd.Exit.info 2
              ~doc:"undecided: a query exhausted its budget (see --timeout)."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file_arg $ widths_arg $ quiet $ jobs_arg $ timeout_arg
      $ conflict_limit_arg $ stats_arg $ trace_arg $ collapsed_arg $ metrics_arg
      $ no_cache_arg $ dump_cnf_arg $ no_aig_arg $ dump_aig_arg)

let infer_cmd =
  let run file widths =
    with_transforms file (fun transforms ->
        List.iter
          (fun t ->
            Format.printf "%s:@." t.Alive.Ast.name;
            match Alive.Attr_infer.infer ?widths t with
            | None ->
                Format.printf
                  "  not correct under any attribute assignment@."
            | Some o ->
                let pp_positions ppf ps =
                  if ps = [] then Format.pp_print_string ppf "(none)"
                  else
                    Format.pp_print_list
                      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                      Alive.Attr_infer.pp_position ppf ps
                in
                Format.printf "  weakest source attributes:  %a@." pp_positions
                  o.weakest_source;
                Format.printf "  strongest target attributes: %a@." pp_positions
                  o.strongest_target;
                if o.source_weakened then
                  Format.printf "  => the precondition can be weakened@.";
                if o.target_strengthened then
                  Format.printf "  => the postcondition can be strengthened@.";
                Format.printf "  optimized transformation:@.%a@."
                  Alive.Ast.pp_transform
                  (Alive.Attr_infer.apply t o.best))
          transforms;
        0)
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Infer the weakest source and strongest target nsw/nuw/exact \
          attribute assignment (§3.4 of the paper).")
    Term.(const run $ file_arg $ widths_arg)

let infer_pre_cmd =
  let run file widths jobs timeout conflict_limit json trace collapsed metrics
      =
    let jobs = resolve_jobs jobs in
    let budget = infer_budget ~timeout ~conflict_limit in
    setup_observability ~trace ~collapsed ~metrics;
    let code =
      with_transforms file (fun transforms ->
          let outcomes =
            Engine.map ~jobs
              ~label:(fun (t : Alive.Ast.transform) -> t.name)
              (fun t -> Alive_infer.Infer.infer ?widths ~budget t)
              transforms
          in
          let status (out : Alive_infer.Infer.outcome Engine.outcome) =
            match out.result with
            | Ok { inferred = Some _; _ } -> "inferred"
            | Ok { inferred = None; _ } -> "failed"
            | Error _ -> "crash"
          in
          List.iter
            (fun out -> print_infer_outcome ~status:(status out) out)
            outcomes;
          Option.iter
            (fun path ->
              write_infer_report path
                (List.map
                   (fun (out : _ Engine.outcome) ->
                     Json.Obj
                       (("name", Json.String out.label)
                       :: ("elapsed_s", Json.Float out.elapsed)
                       :: infer_outcome_fields ~status:(status out) out))
                   outcomes))
            json;
          if List.exists (fun out -> status out <> "inferred") outcomes then 1
          else 0)
    in
    emit_observability ~trace ~collapsed ~metrics;
    code
  in
  Cmd.v
    (Cmd.info "infer-pre"
       ~doc:
         "Infer a precondition for each transformation by \
          counterexample-guided search: sample concrete examples, learn a \
          separating conjunction of built-in predicates, validate it with \
          the full verifier, and feed counterexamples back until it sticks. \
          Any precondition already present is ignored; an absent \
          $(b,--timeout) means 10 seconds per query. Exit 1 if no \
          precondition could be inferred for some transformation."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"inference failed for at least one transformation."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file_arg $ widths_arg $ jobs_arg $ timeout_arg
      $ conflict_limit_arg $ json_arg $ trace_arg $ collapsed_arg $ metrics_arg)

let codegen_cmd =
  let run file verify widths =
    with_transforms file (fun transforms ->
        let ok =
          List.filter
            (fun t ->
              (not verify)
              || Alive.Refine.is_valid_verdict (Alive.Refine.check ?widths t))
            transforms
        in
        if verify && List.length ok < List.length transforms then
          Printf.eprintf "warning: %d transformation(s) failed verification and were skipped\n"
            (List.length transforms - List.length ok);
        print_string (Alive.Codegen.generate_pass ok);
        0)
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Verify first and only emit code for correct transformations.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Emit InstCombine-style C++ for the transformations (§4 of the \
          paper).")
    Term.(const run $ file_arg $ verify $ widths_arg)

let opt_cmd =
  let run file show_stats =
    let text = read_input file in
    match Ir_parser.parse_module text with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        1
    | Ok funcs ->
        let rules = Alive_opt.Matcher.corpus_rules () in
        let optimized, stats = Alive_opt.Pass.run_module ~rules funcs in
        List.iter (fun f -> Format.printf "%a@.@." Ir.pp_func f) optimized;
        if show_stats then begin
          Format.printf "; rules fired:@.";
          List.iter (fun (n, c) -> Format.printf ";   %-45s x%d@." n c) stats
        end;
        0
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print firing counts afterwards.")
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Optimize IR functions with the verified rule corpus (the runtime \
          equivalent of linking the generated C++ into LLVM, \xc2\xa76.4).")
    Term.(const run $ file_arg $ stats)

let optimize_cmd =
  let module Workload = Alive_opt.Workload in
  let module Pass = Alive_opt.Pass in
  let module Compiled = Alive_opt.Compiled in
  let run functions batch_size seed widths jobs json_path ledger_path
      show_stats =
    let jobs = resolve_jobs jobs in
    (* One list for every batch, so the workers share one compiled tree
       (Pass memoizes it by physical identity). *)
    let rules = Alive_opt.Matcher.corpus_rules () in
    let config =
      {
        Workload.default with
        functions;
        seed;
        widths = Option.value widths ~default:Workload.default.widths;
      }
    in
    (* Streamed fixpoint pass: each batch is generated, optimized and
       reduced to aggregates on a worker domain, so the full workload is
       never materialized at once. *)
    let batches = Workload.batches config ~batch_size in
    let before = Alive_trace.Metrics.snapshot () in
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Alive_engine.Engine.map ~jobs
        ~label:(fun (off, _) -> Printf.sprintf "batch@%d" off)
        (fun (off, bc) ->
          let funcs = Workload.generate ~offset:off bc rules in
          let optimized, stats = Pass.run_module ~rules funcs in
          let cost fs =
            List.fold_left (fun a f -> a + Cost.func_cost f) 0 fs
          in
          (List.length funcs, stats, cost funcs, cost optimized))
        batches
    in
    let wall = Unix.gettimeofday () -. t0 in
    let failed =
      List.filter
        (fun (o : _ Alive_engine.Engine.outcome) -> Result.is_error o.result)
        outcomes
    in
    List.iter
      (fun (o : _ Alive_engine.Engine.outcome) ->
        match o.result with
        | Error e ->
            Format.eprintf "optimize: %s failed: %a@." o.label
              Alive_engine.Engine.pp_task_error e
        | Ok _ -> ())
      failed;
    let total, stats, cost_in, cost_out =
      List.fold_left
        (fun (n, st, ci, co) (o : _ Alive_engine.Engine.outcome) ->
          match o.result with
          | Ok (n', st', ci', co') ->
              (n + n', Pass.merge_stats st st', ci + ci', co + co')
          | Error _ -> (n, st, ci, co))
        (0, [], 0, 0) outcomes
    in
    let firings = List.fold_left (fun a (_, n) -> a + n) 0 stats in
    let top10_share =
      let top = List.filteri (fun i _ -> i < 10) stats in
      float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 top)
      /. float_of_int (max 1 firings)
    in
    let firings_per_s = float_of_int firings /. Float.max 1e-9 wall in
    (* Single-match throughput probe: every definition of a fixed sample
       matched once through the compiled tree. A sweep takes milliseconds,
       so the host's drift swamps any one of them: after a warm-up sweep,
       the fastest of 20 is reported (perfbench's chunk-wise best). *)
    let probe =
      Workload.generate { config with functions = min 100 functions } rules
    in
    let tree = Compiled.build rules in
    let sites =
      List.fold_left (fun a (f : Ir.func) -> a + List.length f.Ir.body) 0 probe
    in
    let sweep () =
      List.fold_left
        (fun acc f ->
          let ctx = Compiled.context tree f in
          List.fold_left
            (fun acc d ->
              if Option.is_some (Compiled.match_def ctx d) then acc + 1
              else acc)
            acc f.Ir.body)
        0 probe
    in
    let hits = sweep () in
    let best =
      List.fold_left
        (fun best _ ->
          let t0 = Unix.gettimeofday () in
          ignore (sweep ());
          Float.min best (Unix.gettimeofday () -. t0))
        infinity (List.init 20 Fun.id)
    in
    let match_per_s = float_of_int sites /. Float.max 1e-9 best in
    Printf.printf
      "optimized %d functions in %.2fs on %d jobs: %d firings (%.0f/s), \
       top-10 share %.1f%%, cost %d -> %d\n"
      total wall jobs firings firings_per_s (100.0 *. top10_share) cost_in
      cost_out;
    Printf.printf "matcher probe: %.0f match/s over %d sites, %d hits\n"
      match_per_s sites hits;
    if show_stats then begin
      Printf.printf "rules fired:\n";
      List.iter (fun (n, c) -> Printf.printf "  %-45s x%d\n" n c) stats
    end;
    Option.iter
      (fun path ->
        Json.to_file path
          (Json.Obj
             [
               ("functions", Json.Int total);
               ("jobs", Json.Int jobs);
               ("wall_s", Json.Float wall);
               ("opt_firings", Json.Int firings);
               ("opt_firings_per_s", Json.Float firings_per_s);
               ("opt_top10_share", Json.Float top10_share);
               ("opt_match_per_s", Json.Float match_per_s);
               ("cost_in", Json.Int cost_in);
               ("cost_out", Json.Int cost_out);
               ("batch_failures", Json.Int (List.length failed));
             ]))
      json_path;
    Option.iter
      (fun path ->
        let record =
          Alive_trace.Ledger.make ~label:"optimize" ~jobs ~tasks:total
            ~wall_s:wall
            ~extras:
              [
                ("opt_firings", float_of_int firings);
                ("opt_firings_per_s", firings_per_s);
                ("opt_match_per_s", match_per_s);
                ("opt_top10_share", top10_share);
              ]
            before (Alive_trace.Metrics.snapshot ())
        in
        Alive_trace.Ledger.append ~path record;
        Printf.printf "ledger record appended to %s\n" path)
      ledger_path;
    if failed <> [] then 1 else 0
  in
  let functions =
    Arg.(
      value
      & opt (int_at_least 0) 50_000
      & info [ "functions" ] ~docv:"N"
          ~doc:"Number of Zipf-sampled workload functions to stream.")
  in
  let batch_size =
    Arg.(
      value
      & opt (int_at_least 1) 1_000
      & info [ "batch-size" ] ~docv:"N"
          ~doc:
            "Functions per worker batch; each batch is generated, \
             optimized and reduced to aggregates without materializing \
             the whole workload.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Workload generator seed.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print firing counts afterwards.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Stream a Zipf-sampled synthetic workload through the fused \
          decision-tree optimizer across the Domain pool, reporting \
          firings/sec and the Fig. 9 top-10 firing share (\xc2\xa76.4 at \
          production scale)."
       ~exits:(Cmd.Exit.info 1 ~doc:"a failed worker batch." :: Cmd.Exit.defaults))
    Term.(
      const run $ functions $ batch_size $ seed $ widths_arg $ jobs_arg
      $ json_arg $ ledger_arg $ stats)

let lint_cmd =
  let module D = Alive.Diagnostics in
  let module Lint = Alive_lint.Driver in
  let run file json rule threshold jobs =
    let jobs = resolve_jobs jobs in
    let report =
      match file with
      | None -> Lint.lint_corpus ~jobs Alive_suite.Registry.all
      | Some path -> (
          let name = display_name path in
          match Alive.Parser.parse_file_diag ~file:name (read_input path) with
          | Error d ->
              {
                Lint.findings =
                  [ { Lint.diag = d; transform = ""; allowlisted = false } ];
                entries = 0;
                wall = 0.0;
              }
          | Ok ts -> Lint.lint_transforms ~file:name ts)
    in
    let shown = Lint.filter ?rule ~threshold report in
    if json then print_endline (Alive_engine.Json.to_string (Lint.to_json shown))
    else Lint.print_table shown;
    if Lint.gating shown <> [] then 1 else 0
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Input .opt file ('-' for stdin). Without it, lint the whole \
             built-in corpus, including the registry-level analyses \
             (duplicate names, shadowing, rewrite cycles).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings as a JSON report on stdout.")
  in
  let rule =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"ID"
          ~doc:
            "Only report findings for this rule id (or rule family, e.g. \
             'dead-precondition').")
  in
  let threshold =
    let sev =
      Arg.enum [ ("info", D.Info); ("warning", D.Warning); ("error", D.Error) ]
    in
    Arg.(
      value & opt sev D.Info
      & info [ "severity-threshold" ] ~docv:"SEV"
          ~doc:"Hide findings below $(docv) (info, warning or error).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse transformations without invoking the SMT \
          stack: dead or contradictory preconditions, cost regressions, \
          shadowed rules, rewrite cycles, and well-formedness. Exit 1 when \
          any non-allowlisted error-severity finding survives the filters."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"an error-severity finding was reported."
         :: Cmd.Exit.defaults))
    Term.(const run $ file $ json $ rule $ threshold $ jobs_arg)

let perf_diff_cmd =
  let module Ledger = Alive_trace.Ledger in
  let last = function [] -> None | l -> Some (List.nth l (List.length l - 1)) in
  let run ledger baseline threshold =
    match Ledger.load ~path:ledger with
    | Error e ->
        Printf.eprintf "perf diff: %s\n" e;
        1
    | Ok [] ->
        Printf.eprintf "perf diff: %s has no records\n" ledger;
        1
    | Ok records -> (
        let latest = Option.get (last records) in
        let base =
          match baseline with
          | Some path -> (
              match Ledger.load ~path with
              | Error e -> Error e
              | Ok rs -> (
                  match last rs with
                  | Some r -> Ok r
                  | None -> Error (path ^ " has no records")))
          | None -> (
              (* Compare against the previous record in the same ledger. A
                 single-record ledger diffs against itself: no deltas, exit
                 0 — so a freshly seeded ledger passes CI. *)
              match last (List.filteri (fun i _ -> i < List.length records - 1) records) with
              | Some prev -> Ok prev
              | None -> Ok latest)
        in
        match base with
        | Error e ->
            Printf.eprintf "perf diff: %s\n" e;
            1
        | Ok base ->
            let d =
              Ledger.diff ~threshold_pct:threshold ~baseline:base ~latest ()
            in
            Ledger.render_diff d;
            if d.Ledger.regressions <> [] then 3 else 0)
  in
  let ledger =
    Arg.(
      value
      & opt string "bench/ledger.jsonl"
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"The JSONL performance ledger to read (newest record last).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Take the baseline from the newest record of $(docv) instead of \
             the ledger's previous record.")
  in
  let threshold =
    Arg.(
      value & opt float 15.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression threshold: wall time or SAT conflicts growing, or \
             optimizer matcher or firing throughput dropping, by more than \
             $(docv) percent fails the diff (default 15).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare the newest ledger record against a baseline and flag \
          regressions on the four gated figures (wall time and SAT \
          conflicts must not grow; optimizer matcher and firing throughput \
          must not drop). Every other counter either record carries is \
          listed for information."
       ~exits:
         (Cmd.Exit.info 3
            ~doc:"a gating metric regressed past the threshold."
         :: Cmd.Exit.defaults))
    Term.(const run $ ledger $ baseline $ threshold)

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "Cross-run performance tracking over the ledger written by \
          instrumented corpus runs (see docs/OBSERVABILITY.md).")
    [ perf_diff_cmd ]

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let module Daemon = Alive_service.Daemon in
  let module Log = Alive_trace.Log in
  let run socket store jobs no_compact quiet log_file log_level slow_log
      slow_query_ms =
    let open_log = function
      | None -> None
      | Some path ->
          Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
    in
    let structured_log = open_log log_file in
    let slow_log_oc = open_log slow_log in
    let close_logs () =
      Option.iter close_out_noerr structured_log;
      Option.iter close_out_noerr slow_log_oc
    in
    let config =
      {
        Daemon.socket_path = socket;
        store_dir = store;
        jobs;
        compact_on_exit = not no_compact;
        log = (if quiet then None else Some stderr);
        structured_log;
        log_level;
        slow_log = slow_log_oc;
        slow_query_ms;
      }
    in
    Fun.protect ~finally:close_logs @@ fun () ->
    match Daemon.serve config with
    | Ok () -> 0
    | Error e ->
        Printf.eprintf "serve: %s\n" e;
        1
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Back the daemon with the persistent verdict store in $(docv) \
             (created if missing). Verdicts survive restarts; the store is \
             compacted on clean shutdown.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains in the solver pool (default: all cores).")
  in
  let no_compact =
    Arg.(
      value & flag
      & info [ "no-compact" ] ~doc:"Skip store compaction on shutdown.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No request log on stderr.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append structured JSONL logs to $(docv): one object per line \
             with timestamp, level, message, request id, and per-event \
             fields (op, duration, error). See docs/OBSERVABILITY.md.")
  in
  let log_level =
    let level =
      Arg.enum
        [
          ("debug", Log.Debug);
          ("info", Log.Info);
          ("warn", Log.Warn);
          ("error", Log.Error);
        ]
    in
    Arg.(
      value & opt level Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum severity written to --log: debug, info, warn or error \
             (default info).")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:
            "Append a JSONL record for every request slower than \
             --slow-query-ms: request id, op, duration, the entry's VC \
             digests, and the result (tier outcome and solver stats).")
  in
  let slow_query_ms =
    Arg.(
      value & opt float 500.0
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds (default 500; 0 \
             disables). Slow requests bump the service.slow_queries \
             counter and, with --slow-log, get a JSONL record.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: parse/lint/verify/infer-pre/explain \
          requests over a Unix-domain socket (length-prefixed JSON, see \
          docs/SERVICE.md), solved on a persistent domain pool through the \
          disk-backed verdict store. Every request runs under a request id \
          (client-supplied or generated) shared by its spans, log lines \
          and metrics. Stops cleanly on SIGINT/SIGTERM or a client \
          'shutdown' request.")
    Term.(
      const run $ socket_arg $ store $ jobs $ no_compact $ quiet $ log_file
      $ log_level $ slow_log $ slow_query_ms)

let client_cmd =
  let module Client = Alive_service.Client in
  let module Json = Alive_trace.Json in
  let read_input = function
    | None -> None
    | Some "-" ->
        Some (In_channel.input_all stdin)
    | Some path -> Some (In_channel.with_open_text path In_channel.input_all)
  in
  let run socket op file name rid widths timeout conflict_limit =
    let timeout = if timeout > 0.0 then Some timeout else None in
    let conflict_limit =
      if conflict_limit > 0 then Some conflict_limit else None
    in
    match Client.connect socket with
    | Error e ->
        Printf.eprintf "client: %s\n" e;
        1
    | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let text () =
          match read_input file with
          | Some t -> Ok t
          | None -> Error (Printf.sprintf "op %S needs FILE (or '-')" op)
        in
        (* metrics-prom prints the exposition text raw (scrapeable as-is),
           every other op prints its JSON result. *)
        if op = "metrics-prom" then (
          match Client.metrics_prom c with
          | Ok text ->
              print_string text;
              0
          | Error e ->
              Printf.eprintf "client: %s\n" e;
              1)
        else
          let result =
            match op with
            | "ping" -> Client.ping c
            | "metrics" -> Client.metrics c
            | "store-stats" -> Client.store_stats c
            | "trace" -> Client.trace_dump c
            | "shutdown" -> Client.shutdown c
            | "parse" ->
                Result.bind (text ()) (fun text -> Client.parse c ~text)
            | "lint" -> Result.bind (text ()) (fun text -> Client.lint c ~text)
            | "digests" ->
                Result.bind (text ()) (fun text ->
                    Client.digests c ?name ?widths ~text ())
            | "explain" ->
                Result.bind (text ()) (fun text ->
                    Client.explain c ?rid ?name ?widths ~text ())
            | "verify" ->
                Result.bind (text ()) (fun text ->
                    Client.verify c ?rid ?name ?widths ?timeout
                      ?conflict_limit ~text ())
            | "infer-pre" ->
                Result.bind (text ()) (fun text ->
                    Client.infer_pre c ?name ?timeout ?conflict_limit
                      ~text ())
            | other ->
                (* Forwarded verbatim: the daemon is the authority on the
                   operation set, and an unknown op comes back as an
                   in-protocol error without dropping the connection — which
                   is also how CI smokes the malformed-request path. *)
                let args =
                  Option.map
                    (fun t -> Json.Obj [ ("text", Json.String t) ])
                    (read_input file)
                in
                Client.call c ~op:other ?rid ?args ()
          in
          (match result with
          | Ok j ->
              print_endline (Json.to_string j);
              0
          | Error e ->
              Printf.eprintf "client: %s\n" e;
              1)
  in
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "Operation: ping, parse, lint, verify, infer-pre, digests, \
             explain, metrics, metrics-prom, trace, store-stats, or \
             shutdown.")
  in
  let file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Input .opt file ('-' for stdin) for text-taking ops.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Restrict to the transformation with this name.")
  in
  let rid_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rid" ] ~docv:"ID"
          ~doc:
            "Request id stamped on the daemon's spans and log lines for \
             this request (default: daemon-generated).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "One request to a running 'alive serve' daemon; prints the JSON \
          result on stdout (metrics-prom prints raw Prometheus text). Exit \
          1 on connection or request errors."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"connection or request failed."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ socket_arg $ op $ file $ name_arg $ rid_arg $ widths_arg
      $ timeout_arg $ conflict_limit_arg)

let explain_cmd =
  let module Client = Alive_service.Client in
  let module Json = Alive_trace.Json in
  let member = Json.member in
  let str j = Option.bind j Json.to_str in
  let short d = if String.length d > 12 then String.sub d 0 12 else d in
  let print_query q =
    let at = Option.value ~default:"?" (str (member "at" q)) in
    let kind = Option.value ~default:"?" (str (member "kind" q)) in
    let digest = Option.value ~default:"?" (str (member "digest" q)) in
    let tier = Option.value ~default:"?" (str (member "tier" q)) in
    let origin =
      match str (member "origin" q) with
      | Some o -> Printf.sprintf " (stored: %s)" o
      | None -> ""
    in
    Printf.printf "    %-8s %-8s %s  %s%s\n" at kind (short digest) tier
      origin
  in
  let print_transform t =
    match str (member "error" t) with
    | Some e ->
        Printf.printf "%s: error: %s\n"
          (Option.value ~default:"?" (str (member "name" t)))
          e
    | None ->
        Printf.printf "%s: %s\n"
          (Option.value ~default:"?" (str (member "name" t)))
          (Option.value ~default:"?" (str (member "tier" t)));
        (match member "typings" t with
        | Some (Json.List typings) ->
            List.iteri
              (fun i queries ->
                Printf.printf "  typing %d:\n" i;
                match queries with
                | Json.List qs -> List.iter print_query qs
                | _ -> ())
              typings
        | _ -> ())
  in
  let run socket file name digest widths json =
    match Client.connect socket with
    | Error e ->
        Printf.eprintf "explain: %s\n" e;
        1
    | Ok c -> (
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let result =
          match digest with
          | Some d -> Client.explain_digest c d
          | None -> (
              match file with
              | None -> Error "explain needs FILE (or --digest)"
              | Some f ->
                  Client.explain c ?name ?widths
                    ~text:(read_input f) ())
        in
        match result with
        | Error e ->
            Printf.eprintf "explain: %s\n" e;
            1
        | Ok j ->
            (if json then print_endline (Json.to_string j)
             else
               match j with
               | Json.List ts -> List.iter print_transform ts
               | j -> print_endline (Json.to_string j));
            0)
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Input .opt file ('-' for stdin).")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Restrict to the transformation with this name.")
  in
  let digest =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"DIGEST"
          ~doc:
            "Explain one verdict-store digest instead of a file: its \
             stored verdict, origin, solver cost and provenance.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw JSON response instead of a table.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Ask a running daemon which tier decides each refinement query of \
          a transformation — static prover, in-memory cache, persistent \
          store, or SMT — and, for stored verdicts, the provenance record \
          (origin tier, solver cost, git revision, budget, timestamp). \
          Solves nothing; see docs/OBSERVABILITY.md."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"connection or request failed."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ socket_arg $ file $ name_arg $ digest $ widths_arg $ json)

let top_cmd =
  let module Client = Alive_service.Client in
  let module Json = Alive_trace.Json in
  let member = Json.member in
  let num j = Option.bind j Json.to_float in
  let int_of j = match num j with Some f -> int_of_float f | None -> 0 in
  let section j name = Option.bind j (member name) in
  let run positional socket interval iterations =
    match (positional, socket) with
    | None, None ->
        Printf.eprintf "top: a SOCKET argument (or --socket) is required\n";
        1
    | Some socket, _ | None, Some socket ->
    let rec poll remaining =
      if remaining = 0 then 0
      else
        match Client.connect socket with
        | Error e ->
            Printf.eprintf "top: %s\n" e;
            1
        | Ok c -> (
            let m = Client.metrics c in
            Client.close c;
            match m with
            | Error e ->
                Printf.eprintf "top: %s\n" e;
                1
            | Ok m ->
                let counters = section (Some m) "counters" in
                let gauges = section (Some m) "gauges" in
                let hists = section (Some m) "histograms" in
                let counter name = int_of (section counters name) in
                let gauge name = int_of (section gauges name) in
                (* Clear screen + home, like top(1). *)
                print_string "\027[2J\027[H";
                Printf.printf "alive top — %s\n\n" socket;
                Printf.printf
                  "uptime %6ds   requests %8d   errors %5d   slow %5d\n"
                  (gauge "service.uptime_s")
                  (counter "service.requests")
                  (counter "service.errors")
                  (counter "service.slow_queries");
                Printf.printf
                  "inflight %4d   queue %5d   connections %4d   log lines \
                   %6d\n\n"
                  (gauge "service.inflight") (gauge "service.queue_depth")
                  (gauge "service.connections")
                  (counter "log.lines");
                Printf.printf "store: segments %3d   bytes %9d   live %6d\n"
                  (gauge "store.segments") (gauge "store.bytes")
                  (gauge "store.live");
                Printf.printf "cache hits %6d   store hits %6d   static \
                               proved %6d\n\n"
                  (counter "vc_cache.hits")
                  (counter "vc_cache.store_hits")
                  (counter "refine.static_proved");
                Printf.printf "%-28s %8s %9s %9s %9s\n" "op (latency)" "count"
                  "p50" "p95" "p99";
                (match hists with
                | Some (Json.Obj hs) ->
                    List.iter
                      (fun (name, h) ->
                        let prefix = "service.request_s." in
                        let plen = String.length prefix in
                        if
                          String.length name > plen
                          && String.sub name 0 plen = prefix
                        then
                          let op = String.sub name plen (String.length name - plen) in
                          Printf.printf "%-28s %8d %8.1fms %8.1fms %8.1fms\n"
                            op
                            (int_of (section (Some h) "count"))
                            (1000.
                            *. Option.value ~default:0.
                                 (num (section (Some h) "p50_s")))
                            (1000.
                            *. Option.value ~default:0.
                                 (num (section (Some h) "p95_s")))
                            (1000.
                            *. Option.value ~default:0.
                                 (num (section (Some h) "p99_s"))))
                      hs
                | _ -> ());
                flush stdout;
                if remaining = 1 then 0
                else begin
                  Unix.sleepf interval;
                  poll (remaining - 1)
                end)
    in
    poll iterations
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between refreshes (default 2).")
  in
  let iterations =
    Arg.(
      value & opt int (-1)
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes (default: run until interrupted).")
  in
  let positional_socket =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET"
          ~doc:"Unix-domain socket path the daemon listens on.")
  in
  let optional_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Alternative to the positional $(i,SOCKET) argument.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running daemon's metrics: request \
          and error counters, in-flight and queue gauges, store size, \
          cache and static-tier hits, and per-op latency percentiles, \
          refreshed every --interval seconds."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"connection or request failed."
         :: Cmd.Exit.defaults))
    Term.(const run $ positional_socket $ optional_socket $ interval $ iterations)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "alive" ~version:"1.0"
      ~doc:
        "Provably correct peephole optimizations (an OCaml reproduction of \
         Lopes, Menendez, Nagarakatte and Regehr, PLDI 2015)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            verify_cmd;
            infer_cmd;
            infer_pre_cmd;
            codegen_cmd;
            opt_cmd;
            optimize_cmd;
            lint_cmd;
            perf_cmd;
            Corpus.cmd;
            serve_cmd;
            client_cmd;
            explain_cmd;
            top_cmd;
          ]))
