(* What the alive subcommands share: input reading, argument terms, the
   observability and solve-path switches, budgets, and the
   precondition-inference report. *)

open Cmdliner
module Engine = Alive_engine.Engine
module Json = Alive_trace.Json

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

(* Bad values become usage errors (exit 124) instead of exceptions. *)
let widths_conv =
  Arg.conv'
    ( Alive.Typing.parse_widths,
      fun ppf ws ->
        Format.pp_print_string ppf
          (String.concat "," (List.map string_of_int ws)) )

let int_at_least lo =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ -> Error (Printf.sprintf "expected an integer >= %d, got %S" lo s)),
      Format.pp_print_int )

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input .opt file ('-' for stdin).")

let widths_arg =
  Arg.(
    value
    & opt (some widths_conv) None
    & info [ "widths" ] ~docv:"W1,W2,..."
        ~doc:
          "Width domain for type enumeration: comma-separated widths and \
           inclusive ranges, e.g. $(b,4,8) or $(b,1..32) (default: all of \
           1-8, preferring 4 and 8).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run on $(docv) worker domains (0 = one per core).")

let timeout_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget per SMT query; an exhausted query reports \
           'unknown' instead of running forever (default: no limit).")

let conflict_limit_arg =
  Arg.(
    value
    & opt int 0
    & info [ "conflict-limit" ] ~docv:"N"
        ~doc:
          "SAT conflict budget per SMT query; exhaustion reports 'unknown' \
           (default: no limit).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record pipeline spans and write a Chrome trace-event JSON to \
           $(docv) (open in Perfetto or chrome://tracing; one row per \
           worker domain).")

let collapsed_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "collapsed" ] ~docv:"FILE"
        ~doc:
          "Write collapsed-stack flamegraph lines to $(docv) (feed to \
           flamegraph.pl or speedscope).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect per-phase latency histograms and print the metrics \
           table (count, total, p50/p90/p95/max) after the run.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the canonical verdict cache: solve every query even when \
           an alpha-equivalent one was already decided.")

let dump_cnf_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-cnf" ] ~docv:"DIR"
        ~doc:
          "Write every solved SAT query to $(docv) as a DIMACS file \
           (qNNNNNN-RESULT.cnf), creating the directory if needed.")

let no_aig_arg =
  Arg.(
    value & flag
    & info [ "no-aig" ]
        ~doc:
          "Disable the AIG structural-simplification pass: blast gates \
           directly to CNF instead of building, rewriting and \
           structurally hashing an and-inverter graph first (see \
           docs/PERFORMANCE.md).")

let dump_aig_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-aig" ] ~docv:"DIR"
        ~doc:
          "Write every solved query's reduced and-inverter graph to \
           $(docv) in AIGER ASCII (qNNNNNN-RESULT.aag), creating the \
           directory if needed. No effect with $(b,--no-aig).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print per-transformation solver statistics.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the run's report as JSON to $(docv).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one performance-ledger record (JSONL) to $(docv): the \
           metrics registry's change over the run plus the run's own \
           figures (see docs/OBSERVABILITY.md).")

(* Flip the observability switches before any pipeline work runs. *)
let setup_observability ~trace ~collapsed ~metrics =
  if trace <> None || collapsed <> None then Alive_trace.Trace.set_enabled true;
  if metrics then Alive_trace.Metrics.set_phase_timing true

(* Flip the solve-path switches (cache, AIG pass, CNF and AIG dumping)
   before any query runs. *)
let setup_solve_path ~no_cache ~no_aig ~dump_cnf ~dump_aig =
  if no_cache then Alive_smt.Vc_cache.set_enabled false;
  if no_aig then Alive_smt.Bitblast.set_simplify false;
  let mkdir dir =
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  Option.iter
    (fun dir ->
      mkdir dir;
      Alive_smt.Solve.set_dump_dir (Some dir))
    dump_cnf;
  Option.iter
    (fun dir ->
      mkdir dir;
      Alive_smt.Solve.set_dump_aig_dir (Some dir))
    dump_aig

let emit_observability ~trace ~collapsed ~metrics =
  Option.iter
    (fun path ->
      Alive_trace.Trace.write_chrome path;
      Printf.eprintf "trace written to %s\n" path)
    trace;
  Option.iter
    (fun path ->
      Alive_trace.Trace.write_collapsed path;
      Printf.eprintf "collapsed stacks written to %s\n" path)
    collapsed;
  if metrics then Alive_trace.Metrics.render_table ()

let budget_of ~timeout ~conflict_limit =
  if timeout > 0.0 || conflict_limit > 0 then
    Some
      (Alive_smt.Solve.budget
         ?timeout:(if timeout > 0.0 then Some timeout else None)
         ?conflict_limit:(if conflict_limit > 0 then Some conflict_limit else None)
         ())
  else None

(* Inference needs a deadline for its progress guarantees: an absent
   --timeout means 10s per query, not "no limit". *)
let infer_budget ~timeout ~conflict_limit =
  Alive_smt.Solve.budget
    ~timeout:(if timeout > 0.0 then timeout else 10.0)
    ?conflict_limit:(if conflict_limit > 0 then Some conflict_limit else None)
    ()

let resolve_jobs = function 0 -> Engine.default_jobs () | n -> max 1 n

let display_name = function "-" -> "<stdin>" | path -> path

let with_transforms file f =
  match
    Alive.Parser.parse_file_diag ~file:(display_name file) (read_input file)
  with
  | Error d ->
      Printf.eprintf "%s\n" (Alive.Diagnostics.render d);
      1
  | Ok [] ->
      Printf.eprintf "no transformations found\n";
      1
  | Ok transforms -> f transforms

(* --- The precondition-inference report ---

   [alive infer-pre FILE] and [alive corpus infer-pre] print and write
   their outcomes alike. [status] names a finished inference: "inferred"
   or "failed" for a file, the comparison with the hand-written
   precondition for the corpus; a crashed task is "crash". *)

let render_pred p = Format.asprintf "%a" Alive.Ast.pp_pred p

let print_infer_outcome ~status
    (out : Alive_infer.Infer.outcome Engine.outcome) =
  match out.result with
  | Error e ->
      Printf.printf "%-55s %6.2fs CRASH: %s\n%!" out.label out.elapsed e.message
  | Ok o ->
      Printf.printf "%-55s %6.2fs %-12s %s\n%!" out.label out.elapsed status
        (match o.inferred with
        | Some p -> "pre: " ^ render_pred p
        | None -> o.note)

let infer_outcome_fields ~status
    (out : Alive_infer.Infer.outcome Engine.outcome) =
  match out.result with
  | Error e ->
      [ ("status", Json.String "crash"); ("error", Json.String e.message) ]
  | Ok o ->
      [
        ("status", Json.String status);
        ( "inferred_pre",
          match o.inferred with
          | Some p -> Json.String (render_pred p)
          | None -> Json.Null );
        ("rounds", Json.Int o.rounds);
        ("positives", Json.Int o.positives);
        ("negatives", Json.Int o.negatives);
        ("atoms", Json.Int o.atoms);
        ("validations", Json.Int o.validations);
        ("note", Json.String o.note);
      ]

let write_infer_report ?(extra = []) path entries =
  Json.to_file path
    (Json.Obj
       (("mode", Json.String "infer-pre") :: ("entries", Json.List entries)
       :: extra));
  Printf.eprintf "report written to %s\n" path
