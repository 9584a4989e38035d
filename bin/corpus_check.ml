(* Verify every corpus entry against its expected verdict on the parallel
   engine. The CI smoke job runs this; the bench harness prints Table 3 from
   the same data.

   Three solve paths share the classification and reporting below:
   - in-process (default): Engine.verify_corpus on a local domain pool;
   - --store DIR: same, with the persistent verdict store installed under
     the cache, so verdicts survive across runs;
   - --via SOCKET: thin client to an `alive serve` daemon; the daemon owns
     the pool and the store, this process only sends entries and counts.
   --changed-since (with --store) skips entries whose canonical query
   digests all have stored verdicts, replaying the stored outcome.

   Exit codes: 0 every entry matched its expected verdict; 1 at least one
   mismatch (a definite wrong answer); 2 no mismatches but some entries were
   undecided (budget exhausted / crashed), so the run proved less than the
   full corpus. *)

module Engine = Alive_engine.Engine
module Json = Alive_engine.Json
module Store = Alive_service.Store

let jobs = ref 1
let timeout = ref 0.0 (* seconds per query; 0 = none *)
let conflicts = ref 0 (* conflict limit per query; 0 = none *)
let infer_pre = ref false
let limit = ref 0 (* infer-pre: cap on eligible entries; 0 = all *)
let min_ok = ref 10 (* infer-pre: equal-or-weaker floor for exit 0 *)
let stats = ref false
let json_path = ref ""
let category = ref ""
let quiet = ref false
let lint = ref false
let trace_path = ref ""
let metrics = ref false
let metrics_json = ref ""
let ledger_path = ref ""
let no_cache = ref false
let static_report_path = ref ""
let dump_cnf = ref ""
let no_aig = ref false
let dump_aig = ref ""
let widths_spec = ref ""

(* Width specs are comma-separated items, each a single width or an
   inclusive range: "4,8", "1..32", "1..8,16,32". *)
let parse_widths s =
  String.split_on_char ',' s
  |> List.concat_map (fun part ->
         let part = String.trim part in
         let range =
           try Some (Scanf.sscanf part "%d..%d%!" (fun a b -> (a, b)))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
         in
         match range with
         | Some (a, b) when 1 <= a && a <= b && b <= 64 ->
             List.init (b - a + 1) (fun i -> a + i)
         | Some _ -> raise (Arg.Bad ("bad width range: " ^ part))
         | None -> (
             match int_of_string_opt part with
             | Some w when w >= 1 && w <= 64 -> [ w ]
             | _ -> raise (Arg.Bad ("bad width: " ^ part))))
let opt_parity = ref false
let opt_functions = ref 1000
let via = ref "" (* daemon socket; "" = solve in-process *)
let store_dir = ref "" (* persistent verdict store; "" = none *)
let changed_since = ref "" (* baseline rev label; "" = full run *)

(* Resolved --widths, applied only to entries without an explicit cap: a
   capped entry's comment justifies its cap (division circuits), so a
   width sweep must not blow it open. *)
let width_domain : int list option ref = ref None

let entry_widths (e : Alive_suite.Entry.t) =
  match e.widths with Some w -> Some w | None -> !width_domain

let speclist =
  [
    ( "--lint",
      Arg.Set lint,
      " run the static lint pass over the selected entries first; \
       non-allowlisted error findings fail the run" );
    ("--jobs", Arg.Set_int jobs, "N  worker domains (default 1; 0 = one per core)");
    ( "--timeout",
      Arg.Set_float timeout,
      "SECS  wall-clock budget per SMT query (default: none)" );
    ( "--conflicts",
      Arg.Set_int conflicts,
      "N  SAT conflict budget per SMT query (default: none)" );
    ("--stats", Arg.Set stats, " print the per-entry solver stats table");
    ( "--json",
      Arg.Set_string json_path,
      "FILE  write the full run report as JSON" );
    ( "--file",
      Arg.Set_string category,
      "NAME  restrict to one InstCombine category (e.g. AddSub)" );
    ("--quiet", Arg.Set quiet, " only print mismatches and the summary");
    ( "--trace",
      Arg.Set_string trace_path,
      "FILE  record pipeline spans and write a Chrome trace-event JSON \
       (one row per worker domain; open in Perfetto)" );
    ( "--metrics",
      Arg.Set metrics,
      " collect per-phase latency histograms and print the metrics table" );
    ( "--metrics-json",
      Arg.Set_string metrics_json,
      "FILE  write the metrics registry snapshot as JSON" );
    ( "--ledger",
      Arg.Set_string ledger_path,
      "FILE  append one performance-ledger record (JSONL) for this run; \
       implies per-phase timing" );
    ( "--static-report",
      Arg.Set_string static_report_path,
      Printf.sprintf
        "FILE  run the tier-0 static prover over the selected entries, \
         re-solve every query it proves by SAT under a fixed %d-conflict \
         budget, write a JSON report (per-suite breakdown) to FILE, and exit"
        Alive.Refine.static_recheck_conflicts );
    ( "--no-cache",
      Arg.Set no_cache,
      " disable the canonical verdict cache (solve every query)" );
    ( "--dump-cnf",
      Arg.Set_string dump_cnf,
      "DIR  write every solved SAT query to DIR as DIMACS \
       (qNNNNNN-RESULT.cnf)" );
    ( "--dump-aig",
      Arg.Set_string dump_aig,
      "DIR  write every solved query's reduced and-inverter graph to DIR \
       in AIGER ASCII (qNNNNNN-RESULT.aag); no effect with --no-aig" );
    ( "--no-aig",
      Arg.Set no_aig,
      " disable the AIG structural-simplification pass (direct \
       gate-by-gate CNF encoding) — the parity baseline for the AIG path" );
    ( "--widths",
      Arg.Set_string widths_spec,
      "SPEC  width domain for entries without an explicit cap: \
       comma-separated widths and inclusive ranges (e.g. 16,32 or 1..32); \
       capped entries keep their caps" );
    ( "--via",
      Arg.Set_string via,
      "SOCKET  send entries to the 'alive serve' daemon at SOCKET instead \
       of solving in-process (one client connection per job)" );
    ( "--store",
      Arg.Set_string store_dir,
      "DIR  persistent verdict store: warm the solve path from DIR and \
       write every new verdict through (opened read-only with --via, since \
       the daemon owns its own store)" );
    ( "--changed-since",
      Arg.Set_string changed_since,
      "REV  incremental mode (needs --store): skip entries whose canonical \
       query digests all have stored verdicts, replaying the stored \
       outcome; REV labels the baseline in the summary" );
    ( "--infer-pre",
      Arg.Set infer_pre,
      " instead of verifying, re-derive each hand-written precondition by \
       counterexample-guided inference and compare the two" );
    ( "--limit",
      Arg.Set_int limit,
      "N  (--infer-pre) use only the first N eligible entries (0 = all)" );
    ( "--min-ok",
      Arg.Set_int min_ok,
      "N  (--infer-pre) exit 0 only if at least N entries re-derive an \
       equal-or-weaker precondition (default 10)" );
    ( "--opt-parity",
      Arg.Set opt_parity,
      " instead of verifying, differential-check the compiled decision-tree \
       matcher against the per-rule scan on corpus-derived and random \
       workload functions; any divergence fails the run" );
    ( "--opt-functions",
      Arg.Set_int opt_functions,
      "N  (--opt-parity) random workload functions to check (default 1000)" );
  ]

(* --via: thin-client mode. One daemon connection per worker thread,
   entries pulled from a shared index; the daemon does all the solving (on
   its own domain pool, through its own verdict store) and this side only
   marshals, classifies against the expected verdict, and counts. *)

let run_via ~socket ~jobs ~mismatches ~undecided
    (entries : Alive_suite.Entry.t list) =
  let module Client = Alive_service.Client in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let results = Array.make n ("", "", 0.0) in
  let lock = Mutex.create () in
  let errors = ref 0 in
  let next = Atomic.make 0 in
  let is_unknown v =
    String.length v >= 7 && String.sub v 0 7 = "unknown"
  in
  let t0 = Unix.gettimeofday () in
  let worker () =
    let client = Result.to_option (Client.connect socket) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let e = arr.(i) in
        let q0 = Unix.gettimeofday () in
        let resp =
          match client with
          | None -> Error ("cannot connect to daemon at " ^ socket)
          | Some c ->
              (* One request id per corpus entry, so every daemon-side
                 span and log line of this entry's verification is
                 greppable by "cc-<index>". *)
              Client.verify c
                ~rid:(Printf.sprintf "cc-%d" i)
                ?widths:(entry_widths e)
                ?timeout:(if !timeout > 0.0 then Some !timeout else None)
                ?conflict_limit:
                  (if !conflicts > 0 then Some !conflicts else None)
                ~text:e.text ()
        in
        let elapsed = Unix.gettimeofday () -. q0 in
        let verdict, detail =
          match resp with
          | Error msg -> ("error", msg)
          | Ok (Json.List (_ :: _ as items)) ->
              let vs =
                List.map
                  (fun j ->
                    Option.value ~default:"error"
                      (Option.bind (Json.member "verdict" j) Json.to_str))
                  items
              in
              (* An entry's text can hold several transforms; a definite
                 failure outranks unknown outranks valid, as in the local
                 scan. *)
              let bad =
                List.find_opt
                  (fun v -> v = "invalid" || v = "type-error" || v = "unsupported")
                  vs
              in
              let unk = List.find_opt is_unknown vs in
              (match (bad, unk) with
              | Some v, _ -> (v, "")
              | None, Some v -> (v, "")
              | None, None -> ("valid", ""))
          | Ok _ -> ("error", "malformed verify response")
        in
        results.(i) <- (e.name, verdict, elapsed);
        Mutex.lock lock;
        (if verdict = "error" || is_unknown verdict then begin
           incr undecided;
           if verdict = "error" then incr errors;
           Printf.printf "%-55s %6.2fs %s\n%!" e.name elapsed
             (if verdict = "error" then "ERROR: " ^ detail
              else "UNKNOWN: " ^ verdict)
         end
         else
           let valid = verdict = "valid" in
           let want_valid = e.expected = Alive_suite.Entry.Expect_valid in
           if valid <> want_valid then begin
             incr mismatches;
             Printf.printf "%-55s %6.2fs MISMATCH: %s\n%!" e.name elapsed
               verdict
           end
           else if not !quiet then
             Printf.printf "%-55s %6.2fs ok\n%!" e.name elapsed);
        Mutex.unlock lock;
        loop ()
      end
    in
    loop ();
    Option.iter Client.close client
  in
  let jobs = max 1 (min jobs (max 1 n)) in
  let threads = Array.init jobs (fun _ -> Thread.create worker ()) in
  Array.iter Thread.join threads;
  (Array.to_list results, Unix.gettimeofday () -. t0, !errors)

(* --- The run's registry change --- *)

(* The daemon's registry, scraped over its socket; [None] when it cannot be
   reached. *)
let scrape socket =
  let module Client = Alive_service.Client in
  match Client.connect socket with
  | Error _ -> None
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Result.to_option
        (Result.map Alive_trace.Metrics.snapshot_of_json (Client.metrics c))

let empty_snapshot = Alive_trace.Metrics.snapshot_of_json (Json.Obj [])

(* The non-zero counters of a registry change, as [name=value] pairs. *)
let render_counters counters =
  List.filter_map
    (fun (k, v) ->
      if v = 0.0 then None
      else if Float.is_integer v then Some (Printf.sprintf "%s=%.0f" k v)
      else Some (Printf.sprintf "%s=%.3f" k v))
    counters
  |> String.concat " "

let histogram names =
  List.sort_uniq compare names
  |> List.map (fun n -> (n, List.length (List.filter (String.equal n) names)))

let append_ledger record =
  Alive_trace.Ledger.append ~path:!ledger_path record;
  Printf.printf "ledger record appended to %s\n" !ledger_path

(* --infer-pre: run the Alive-Infer loop on every corpus entry that carries
   a hand-written precondition and compare the re-derived predicate against
   it. The hand-written precondition is the reference: [equal]/[weaker] is
   a success, [stronger]/[incomparable] means the learner picked a sound
   but different region, and [failed] carries the inference note. *)
let run_infer_pre (entries : Alive_suite.Entry.t list) =
  let jobs = if !jobs = 0 then Engine.default_jobs () else max 1 !jobs in
  let eligible =
    List.filter_map
      (fun (e : Alive_suite.Entry.t) ->
        match e.expected with
        | Alive_suite.Entry.Expect_invalid -> None
        | Alive_suite.Entry.Expect_valid -> (
            match (try Some (Alive_suite.Entry.parse e) with _ -> None) with
            | Some t
              when t.Alive.Ast.pre <> Alive.Ast.Ptrue
                   && not (Alive.Ast.has_memory_ops t) ->
                Some (e, t)
            | _ -> None))
      entries
  in
  let eligible =
    if !limit > 0 then List.filteri (fun i _ -> i < !limit) eligible
    else eligible
  in
  if eligible = [] then begin
    Printf.eprintf
      "no eligible entries (expected-valid, register-only, non-trivial \
       precondition)\n";
    exit 1
  end;
  (* Inference needs a deadline to make progress guarantees, so unlike the
     verify mode an absent --timeout means 10s per query, not "no limit". *)
  let budget =
    Alive_smt.Solve.budget
      ~timeout:(if !timeout > 0.0 then !timeout else 10.0)
      ?conflict_limit:(if !conflicts > 0 then Some !conflicts else None)
      ()
  in
  let render_pred p = Format.asprintf "%a" Alive.Ast.pp_pred p in
  let status_of (o, cmp) =
    match (o.Alive_infer.Infer.inferred, cmp) with
    | None, _ -> "failed"
    | Some _, Some c -> Alive_infer.Infer.cmp_name c
    | Some _, None -> "failed"
  in
  let on_outcome (out : _ Engine.outcome) =
    match out.result with
    | Error err -> Printf.printf "%-55s %6.2fs CRASH: %s\n%!" out.label out.elapsed err.Engine.message
    | Ok ((o, _) as r) ->
        let detail =
          match o.Alive_infer.Infer.inferred with
          | Some p -> "pre: " ^ render_pred p
          | None -> o.note
        in
        if (not !quiet) || status_of r <> "equal" then
          Printf.printf "%-55s %6.2fs %-12s %s\n%!" out.label out.elapsed
            (status_of r) detail
  in
  let before = Alive_trace.Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Engine.map ~jobs ~on_outcome
      ~label:(fun ((e : Alive_suite.Entry.t), _) -> e.name)
      (fun ((e : Alive_suite.Entry.t), t) ->
        let o = Alive_infer.Infer.infer ?widths:e.widths ~budget t in
        let cmp =
          match o.Alive_infer.Infer.inferred with
          | None -> None
          | Some p ->
              Some
                (Alive_infer.Infer.compare_preds ?widths:e.widths ~budget t
                   t.Alive.Ast.pre p)
        in
        (o, cmp))
      eligible
  in
  let wall = Unix.gettimeofday () -. t0 in
  let statuses =
    List.map
      (fun (out : _ Engine.outcome) ->
        match out.result with Error _ -> "crash" | Ok r -> status_of r)
      outcomes
  in
  let count s = List.length (List.filter (String.equal s) statuses) in
  let ok = count "equal" + count "weaker" in
  let infer_s =
    List.fold_left
      (fun acc (out : _ Engine.outcome) ->
        match out.result with Ok (o, _) -> acc +. o.Alive_infer.Infer.elapsed | Error _ -> acc)
      0.0 outcomes
  in
  let total =
    List.fold_left
      (fun acc (out : _ Engine.outcome) ->
        match out.result with
        | Ok (o, _) -> Alive.Refine.merge_stats acc o.Alive_infer.Infer.stats
        | Error _ -> acc)
      (Alive.Refine.empty_stats ()) outcomes
  in
  Printf.printf
    "infer-pre: %d entries, %d equal, %d weaker, %d stronger, %d \
     incomparable, %d unknown-cmp, %d failed, %d crashed; wall %.2fs with \
     %d job(s), %d queries, %d validations\n"
    (List.length outcomes) (count "equal") (count "weaker") (count "stronger")
    (count "incomparable") (count "unknown") (count "failed") (count "crash")
    wall jobs total.Alive.Refine.queries
    (List.fold_left
       (fun acc (out : _ Engine.outcome) ->
         match out.result with
         | Ok (o, _) -> acc + o.Alive_infer.Infer.validations
         | Error _ -> acc)
       0 outcomes);
  if !json_path <> "" then begin
    let entry_json ((e : Alive_suite.Entry.t), (t : Alive.Ast.transform))
        (out : _ Engine.outcome) =
      let base =
        [
          ("name", Json.String e.name);
          ("file", Json.String e.file);
          ("hand_pre", Json.String (render_pred t.pre));
          ("elapsed_s", Json.Float out.elapsed);
        ]
      in
      let rest =
        match out.result with
        | Error err ->
            [
              ("status", Json.String "crash");
              ("error", Json.String err.Engine.message);
            ]
        | Ok ((o, _) as r) ->
            [
              ("status", Json.String (status_of r));
              ( "inferred_pre",
                match o.Alive_infer.Infer.inferred with
                | Some p -> Json.String (render_pred p)
                | None -> Json.Null );
              ("rounds", Json.Int o.rounds);
              ("positives", Json.Int o.positives);
              ("negatives", Json.Int o.negatives);
              ("atoms", Json.Int o.atoms);
              ("validations", Json.Int o.validations);
              ("note", Json.String o.note);
            ]
      in
      Json.Obj (base @ rest)
    in
    let j =
      Json.Obj
        [
          ("mode", Json.String "infer-pre");
          ("entries", Json.List (List.map2 entry_json eligible outcomes));
          ("equal_or_weaker", Json.Int ok);
          ("min_ok", Json.Int !min_ok);
          ("wall_s", Json.Float wall);
          ("infer_s", Json.Float infer_s);
        ]
    in
    Json.to_file !json_path j;
    Printf.printf "report written to %s\n" !json_path
  end;
  if !trace_path <> "" then begin
    Alive_trace.Trace.write_chrome !trace_path;
    Printf.printf "trace written to %s\n" !trace_path
  end;
  if !metrics then Alive_trace.Metrics.render_table ();
  if !metrics_json <> "" then begin
    Json.to_file !metrics_json (Alive_trace.Metrics.to_json ());
    Printf.printf "metrics written to %s\n" !metrics_json
  end;
  if !ledger_path <> "" then begin
    let label =
      if !category = "" then "corpus_check.infer"
      else "corpus_check.infer:" ^ !category
    in
    append_ledger
      (Alive_trace.Ledger.make ~label ~jobs ~tasks:(List.length outcomes)
         ~budget:
           {
             timeout_s = (if !timeout > 0.0 then !timeout else 10.0);
             conflict_limit = !conflicts;
           }
         ~wall_s:wall ~extras:[ ("infer_s", infer_s) ]
         ~verdicts:(histogram statuses) before
         (Alive_trace.Metrics.snapshot ()))
  end;
  exit (if ok >= min !min_ok (List.length outcomes) then 0 else 1)

(* --- --static-report: tier-0 coverage, checked query by query ---

   Every query tier 0 proves is re-solved by the SAT solver under a fixed
   conflict budget, past the verdict cache. A model is a soundness bug in
   the static prover and fails the run; a query the budget cannot decide
   is counted per entry and printed, never dropped. An exception from the
   re-solve (e.g. [Solve.Model_mismatch], a bug in lowering, the AIG or
   the CNF) is recorded in that entry's row and fails the run too. *)

let run_static_report ~path (entries : Alive_suite.Entry.t list) =
  let t0 = Unix.gettimeofday () in
  let rows = ref [] in
  let suites : (string, int * int * int) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0 and complete = ref 0 and unsound = ref 0 in
  let confirmed = ref 0 and unknown = ref 0 and refuted = ref 0 in
  let crashed = ref 0 in
  List.iter
    (fun (e : Alive_suite.Entry.t) ->
      incr total;
      let crash = ref false in
      let summary =
        match Alive_suite.Entry.parse e with
        | exception exn -> Error (Printexc.to_string exn)
        | tr -> (
            match Alive.Refine.static_check ?widths:e.widths tr with
            | r -> r
            | exception exn ->
                let m = Printexc.to_string exn in
                crash := true;
                incr crashed;
                Printf.eprintf "static-report: CRASH: %s (%s): %s\n" e.name
                  e.file m;
                Error m)
      in
      let typ, q, disch, comp, (rc : Alive.Refine.static_recheck), err =
        let none =
          { Alive.Refine.recheck_confirmed = 0; recheck_unknown = 0;
            recheck_refuted = [] }
        in
        match summary with
        | Ok (s, rc) ->
            ( s.Alive.Refine.static_typings,
              s.static_queries,
              s.static_discharged,
              s.static_complete,
              rc,
              None )
        | Error m -> (0, 0, 0, false, none, Some m)
      in
      if comp then incr complete;
      (* A statically proved expected-invalid entry is a soundness bug in
         the prover, not a coverage win; fail loudly. *)
      if comp && e.expected = Alive_suite.Entry.Expect_invalid then begin
        incr unsound;
        Printf.eprintf
          "static-report: UNSOUND: %s (%s) is expected-invalid but the \
           static tier proved it\n"
          e.name e.file
      end;
      confirmed := !confirmed + rc.recheck_confirmed;
      unknown := !unknown + rc.recheck_unknown;
      refuted := !refuted + List.length rc.recheck_refuted;
      List.iter
        (fun where ->
          Printf.eprintf
            "static-report: REFUTED: %s (%s): tier 0 proved %s, the solver \
             found a model\n"
            e.name e.file where)
        rc.recheck_refuted;
      if rc.recheck_unknown > 0 then
        Printf.printf "  unknown on re-solve: %s (%s) %d\n" e.name e.file
          rc.recheck_unknown;
      let en, pr, un =
        match Hashtbl.find_opt suites e.file with
        | Some p -> p
        | None -> (0, 0, 0)
      in
      Hashtbl.replace suites e.file
        (en + 1, (if comp then pr + 1 else pr), un + rc.recheck_unknown);
      rows :=
        Json.Obj
          ([
             ("name", Json.String e.name);
             ("file", Json.String e.file);
             ("typings", Json.Int typ);
             ("queries", Json.Int q);
             ("discharged", Json.Int disch);
             ("complete", Json.Bool comp);
             ("confirmed", Json.Int rc.recheck_confirmed);
             ("unknown", Json.Int rc.recheck_unknown);
             ( "refuted",
               Json.List
                 (List.map (fun w -> Json.String w) rc.recheck_refuted) );
           ]
          @ (match err with None -> [] | Some m -> [ ("error", Json.String m) ])
          @ if !crash then [ ("crashed", Json.Bool true) ] else [])
        :: !rows)
    entries;
  let wall = Unix.gettimeofday () -. t0 in
  let by_suite =
    Hashtbl.fold (fun file (en, pr, un) acc -> (file, en, pr, un) :: acc) suites []
    |> List.sort compare
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 2);
        ("entries", Json.Int !total);
        ("complete", Json.Int !complete);
        ("unsound", Json.Int !unsound);
        ("recheck_conflicts", Json.Int Alive.Refine.static_recheck_conflicts);
        ("confirmed", Json.Int !confirmed);
        ("unknown", Json.Int !unknown);
        ("refuted", Json.Int !refuted);
        ("crashed", Json.Int !crashed);
        ("wall_s", Json.Float wall);
        ( "suites",
          Json.List
            (List.map
               (fun (file, en, pr, un) ->
                 Json.Obj
                   [
                     ("file", Json.String file);
                     ("entries", Json.Int en);
                     ("complete", Json.Int pr);
                     ("unknown", Json.Int un);
                   ])
               by_suite) );
        ("rows", Json.List (List.rev !rows));
      ]
  in
  Json.to_file path doc;
  Printf.printf "  %-16s %7s  %s\n" "suite" "proved" "unknown on re-solve";
  List.iter
    (fun (file, en, pr, un) ->
      Printf.printf "  %-16s %3d/%3d  %d\n" file pr en un)
    by_suite;
  Printf.printf
    "static-report: %d/%d entries fully discharged by tier 0; %d proved \
     queries re-solved (%d conflicts each): %d confirmed, %d refuted, %d \
     unknown; %d entries crashed; %.2fs -> %s\n%!"
    !complete !total
    (!confirmed + !refuted + !unknown)
    Alive.Refine.static_recheck_conflicts !confirmed !refuted !unknown
    !crashed wall path;
  exit (if !unsound > 0 || !refuted > 0 || !crashed > 0 then 1 else 0)

(* --opt-parity: the compiled decision tree is only a pre-filter, so it must
   agree with the per-rule scan — same rule, same root, same bindings — at
   every site. Two function pools exercise it: a saturated-injection workload
   (every instruction group is an instantiated corpus rule source, so the
   corpus patterns all appear in matchable position) and the default random
   mix. A third check runs the whole fixpoint pass under both engines and
   compares the optimized bodies and firing stats. *)
let run_opt_parity (entries : Alive_suite.Entry.t list) =
  let module Matcher = Alive_opt.Matcher in
  let module Compiled = Alive_opt.Compiled in
  let module Workload = Alive_opt.Workload in
  let module Pass = Alive_opt.Pass in
  let rules =
    List.filter_map
      (fun (e : Alive_suite.Entry.t) ->
        if e.expected = Alive_suite.Entry.Expect_valid && e.canonical then
          Result.to_option
            (Matcher.rule_of_transform (Alive_suite.Entry.parse e))
        else None)
      entries
  in
  if rules = [] then begin
    Printf.eprintf "opt-parity: no verified canonical rules selected\n";
    exit 1
  end;
  let tree = Compiled.build rules in
  let n = max 1 !opt_functions in
  let corpus_pool =
    Workload.generate
      {
        Workload.default with
        functions = max 50 (n / 4);
        seed = 101;
        inject_probability = 1.0;
      }
      rules
  in
  let random_pool =
    Workload.generate { Workload.default with functions = n; seed = 202 } rules
  in
  let t0 = Unix.gettimeofday () in
  let sites = ref 0 in
  let check_func bad (f : Ir.func) =
    let ctx = Compiled.context tree f in
    List.fold_left
      (fun bad (d : Ir.def) ->
        incr sites;
        let c = Compiled.match_def ctx d in
        let l = Compiled.match_linear ~rules f d.Ir.name in
        let same =
          match (c, l) with
          | None, None -> true
          | Some (rc, mc), Some (rl, ml) ->
              String.equal rc.Matcher.rule_name rl.Matcher.rule_name
              && String.equal mc.Matcher.root ml.Matcher.root
              && mc.Matcher.bindings.Alive_opt.Concrete.consts
                 = ml.Matcher.bindings.Alive_opt.Concrete.consts
              && mc.Matcher.bindings.Alive_opt.Concrete.values
                 = ml.Matcher.bindings.Alive_opt.Concrete.values
          | _ -> false
        in
        if same then bad
        else begin
          Printf.printf "DIVERGE %s/%s: compiled=%s linear=%s\n" f.Ir.fname
            d.Ir.name
            (match c with
            | Some (r, _) -> r.Matcher.rule_name
            | None -> "-")
            (match l with
            | Some (r, _) -> r.Matcher.rule_name
            | None -> "-");
          bad + 1
        end)
      bad f.Ir.body
  in
  let divergences =
    List.fold_left check_func 0 (corpus_pool @ random_pool)
  in
  (* Whole-pass parity: the worklist fixpoint must land on the same module
     whichever matcher backs it — modulo the names [Matcher.rewrite] mints
     from its global fresh counter, so compare alpha-normalized bodies
     (every def renamed to its body position). *)
  let normalize (f : Ir.func) =
    let renamed = Hashtbl.create 64 in
    List.iteri
      (fun i (d : Ir.def) ->
        Hashtbl.replace renamed d.Ir.name (Printf.sprintf "d%d" i))
      f.Ir.body;
    let value = function
      | Ir.Var n as v -> (
          match Hashtbl.find_opt renamed n with
          | Some n' -> Ir.Var n'
          | None -> v (* parameter *))
      | (Ir.Const _ | Ir.Undef _) as v -> v
    in
    let inst = function
      | Ir.Binop (op, attrs, a, b) -> Ir.Binop (op, attrs, value a, value b)
      | Ir.Icmp (c, a, b) -> Ir.Icmp (c, value a, value b)
      | Ir.Select (c, a, b) -> Ir.Select (value c, value a, value b)
      | Ir.Conv (c, a) -> Ir.Conv (c, value a)
      | Ir.Freeze a -> Ir.Freeze (value a)
    in
    {
      f with
      Ir.body =
        List.map
          (fun (d : Ir.def) ->
            {
              d with
              Ir.name = Hashtbl.find renamed d.Ir.name;
              Ir.inst = inst d.Ir.inst;
            })
          f.Ir.body;
      Ir.ret = value f.Ir.ret;
    }
  in
  let pass_pool =
    List.filteri (fun i _ -> i < 200) (corpus_pool @ random_pool)
  in
  let pass_divergences =
    List.fold_left
      (fun bad (f : Ir.func) ->
        let c = Pass.run_guarded ~rules ~engine:`Compiled f in
        let l = Pass.run_guarded ~rules ~engine:`Linear f in
        if
          normalize c.Pass.func = normalize l.Pass.func
          && c.Pass.stats = l.Pass.stats
        then bad
        else begin
          Printf.printf "PASS-DIVERGE %s: engines disagree after fixpoint\n"
            f.Ir.fname;
          bad + 1
        end)
      0 pass_pool
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "opt-parity: %d rules, %d sites over %d functions, %d match \
     divergence(s), %d pass divergence(s) in %.2fs\n%!"
    (List.length rules) !sites
    (List.length corpus_pool + List.length random_pool)
    divergences pass_divergences wall;
  exit (if divergences > 0 || pass_divergences > 0 then 1 else 0)

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "corpus_check [options]";
  let entries =
    List.filter
      (fun (e : Alive_suite.Entry.t) ->
        !category = "" || String.equal e.file !category)
      Alive_suite.Registry.all
  in
  if entries = [] then begin
    Printf.eprintf "no corpus entries selected\n";
    exit 1
  end;
  if !trace_path <> "" then Alive_trace.Trace.set_enabled true;
  if !metrics || !metrics_json <> "" || !ledger_path <> "" then
    Alive_trace.Metrics.set_phase_timing true;
  if !no_cache then Alive_smt.Vc_cache.set_enabled false;
  if !no_aig then Alive_smt.Bitblast.set_simplify false;
  if !widths_spec <> "" then width_domain := Some (parse_widths !widths_spec);
  if !dump_cnf <> "" then begin
    (try Unix.mkdir !dump_cnf 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Alive_smt.Solve.set_dump_dir (Some !dump_cnf)
  end;
  if !dump_aig <> "" then begin
    (try Unix.mkdir !dump_aig 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Alive_smt.Solve.set_dump_aig_dir (Some !dump_aig)
  end;
  if !static_report_path <> "" then
    run_static_report ~path:!static_report_path entries;
  if !opt_parity then run_opt_parity entries;
  if !infer_pre then run_infer_pre entries;
  let lint_errors =
    if not !lint then 0
    else begin
      let report =
        Alive_lint.Driver.lint_corpus
          ~jobs:(if !jobs = 0 then Engine.default_jobs () else max 1 !jobs)
          entries
      in
      let gating = Alive_lint.Driver.gating report in
      List.iter
        (fun f ->
          Printf.printf "%s\n" (Alive_lint.Driver.render_finding f))
        (if !quiet then gating else report.findings);
      Printf.printf "lint: %d finding(s), %d gating error(s) in %.3fs\n%!"
        (List.length report.findings)
        (List.length gating) report.wall;
      List.length gating
    end
  in
  let budget =
    if !timeout > 0.0 || !conflicts > 0 then
      Some
        (Alive_smt.Solve.budget
           ?timeout:(if !timeout > 0.0 then Some !timeout else None)
           ?conflict_limit:(if !conflicts > 0 then Some !conflicts else None)
           ())
    else None
  in
  (* --- Persistent store / incremental partition --- *)
  let budget_str =
    String.concat " "
      ((if !timeout > 0.0 then [ Printf.sprintf "timeout=%gs" !timeout ]
        else [])
      @
      if !conflicts > 0 then [ Printf.sprintf "conflicts=%d" !conflicts ]
      else [])
  in
  let store =
    if !store_dir = "" then None
    else
      (* With --via the daemon owns the writable store; this process only
         needs digest lookups, which a read-only replay provides even while
         the daemon holds the write lock. *)
      let readonly = !via <> "" in
      match Store.open_store ~readonly !store_dir with
      | Ok s ->
          if not readonly then begin
            Store.set_context ~budget:budget_str s;
            Store.install_backing s
          end;
          Some s
      | Error e ->
          Printf.eprintf "store: %s\n" e;
          exit 1
  in
  if !changed_since <> "" && store = None then begin
    Printf.eprintf "--changed-since requires --store DIR\n";
    exit 1
  end;
  let mismatches = ref 0 and undecided = ref 0 in
  (* An entry whose refinement queries all have stored verdicts needs no
     solving: replay the stored outcome. The walk mirrors the verifier's
     scan order — within a typing, a stored Invalid settles the entry (the
     original run stopped there, so later digests were never stored); a
     missing digest means the entry's VCs changed (or were never fully
     decided) and it must be re-verified. *)
  let covered_by_store s (e : Alive_suite.Entry.t) =
    match
      (try Ok (Alive_suite.Entry.parse e) with ex -> Error (Printexc.to_string ex))
    with
    | Error _ -> `Changed
    | Ok t -> (
        match Alive.Refine.query_digests ?widths:(entry_widths e) t with
        | Error _ -> `Changed
        | Ok typings ->
            let rec scan_typings = function
              | [] -> `Covered `Valid
              | digests :: rest -> (
                  let rec scan = function
                    | [] -> `Typing_valid
                    | d :: more -> (
                        match Store.lookup_verdict s d with
                        | None -> `Missing
                        | Some `Valid -> scan more
                        | Some (`Invalid _) -> `Typing_invalid)
                  in
                  match scan digests with
                  | `Missing -> `Changed
                  | `Typing_invalid -> `Covered `Invalid
                  | `Typing_valid -> scan_typings rest)
            in
            scan_typings typings)
  in
  let skipped, entries =
    if !changed_since = "" then ([], entries)
    else
      List.partition_map
        (fun (e : Alive_suite.Entry.t) ->
          match covered_by_store (Option.get store) e with
          | `Covered v -> Either.Left (e, v)
          | `Changed -> Either.Right e)
        entries
  in
  List.iter
    (fun ((e : Alive_suite.Entry.t), v) ->
      let valid = v = `Valid in
      let want_valid = e.expected = Alive_suite.Entry.Expect_valid in
      if valid <> want_valid then begin
        incr mismatches;
        Printf.printf "%-55s   skip MISMATCH (store replay: %s)\n%!" e.name
          (if valid then "valid" else "invalid")
      end
      else if not !quiet then
        Printf.printf "%-55s   skip ok (store)\n%!" e.name)
    skipped;
  let expected = Hashtbl.create 64 in
  let tasks =
    List.map
      (fun (e : Alive_suite.Entry.t) ->
        Hashtbl.replace expected e.name e.expected;
        {
          Engine.task_name = e.name;
          widths = entry_widths e;
          prepare = (fun () -> Alive_suite.Entry.parse e);
        })
      entries
  in
  let classify (r : Engine.task_result) =
    match r.outcome with
    | Error e -> `Undecided ("CRASH: " ^ e.Engine.message)
    | Ok res -> (
        match res.verdict with
        | Alive.Refine.Unknown u ->
            `Undecided
              (Format.asprintf "UNKNOWN: %a at %s" Alive_smt.Solve.pp_reason
                 u.reason u.at)
        | v ->
            let valid = Alive.Refine.is_valid_verdict v in
            let want_valid =
              Hashtbl.find expected r.name = Alive_suite.Entry.Expect_valid
            in
            if valid = want_valid then `Ok
            else
              `Mismatch
                (Format.asprintf "MISMATCH: %a" Alive.Refine.pp_verdict v))
  in
  let on_result (r : Engine.task_result) =
    let status =
      match classify r with
      | `Ok -> if r.elapsed > 1.0 then Some "ok (slow)" else None
      | `Mismatch msg ->
          incr mismatches;
          Some msg
      | `Undecided msg ->
          incr undecided;
          Some msg
    in
    match status with
    | Some msg -> Printf.printf "%-55s %6.2fs %s\n%!" r.name r.elapsed msg
    | None ->
        if not !quiet then Printf.printf "%-55s %6.2fs ok\n%!" r.name r.elapsed
  in
  let jobs = if !jobs = 0 then Engine.default_jobs () else max 1 !jobs in
  let n_skipped = List.length skipped in
  let since_label =
    if !changed_since = "" then ""
    else
      Printf.sprintf " (since %s: %d skipped, %d re-verified)" !changed_since
        n_skipped (List.length entries)
  in
  (* Summary lines and ledger records report the registry's change over
     the run: this process's own registry, or the daemon's with --via. *)
  let snapshot () =
    if !via = "" then Some (Alive_trace.Metrics.snapshot ()) else scrape !via
  in
  let before = snapshot () in
  (* Each path returns its verdicts, wall, jobs and how to write its
     --json report given the run's counters. *)
  let results, wall, jobs, report_json =
    if !via <> "" then begin
      let results, wall, errors =
        run_via ~socket:!via ~jobs ~mismatches ~undecided entries
      in
      let report_json counters =
        let entry_json (name, verdict, elapsed) =
          Json.Obj
            [
              ("name", Json.String name);
              ("verdict", Json.String verdict);
              ("elapsed_s", Json.Float elapsed);
            ]
        in
        Json.Obj
          [
            ("mode", Json.String "via");
            ("socket", Json.String !via);
            ("skipped", Json.Int n_skipped);
            ("entries", Json.List (List.map entry_json results));
            ("mismatches", Json.Int !mismatches);
            ("undecided", Json.Int !undecided);
            ("errors", Json.Int errors);
            ("wall_s", Json.Float wall);
            ( "counters",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Alive_trace.Ledger.number v))
                   counters) );
          ]
      in
      (results, wall, jobs, report_json)
    end
    else begin
      let report = Engine.verify_corpus ~jobs ?budget ~on_result tasks in
      if !stats then Engine.print_table report;
      let results =
        List.map
          (fun (r : Engine.task_result) ->
            (r.name, Engine.verdict_name r, r.elapsed))
          report.results
      in
      (results, report.wall, report.jobs, fun _ -> Engine.report_json report)
    end
  in
  let before, after =
    match (before, snapshot ()) with
    | Some b, Some a -> (b, a)
    | _ ->
        Printf.eprintf "warning: could not read the daemon's metrics\n";
        (empty_snapshot, empty_snapshot)
  in
  let counters = Alive_trace.Ledger.counters_since before after in
  Printf.printf
    "done: %d entries%s, %d mismatches, %d undecided; wall %.2fs with %d \
     %s; %s\n"
    (List.length results) since_label !mismatches !undecided wall jobs
    (if !via = "" then "job(s)" else "client job(s) via " ^ !via)
    (render_counters counters);
  if !json_path <> "" then begin
    Json.to_file !json_path (report_json counters);
    Printf.printf "report written to %s\n" !json_path
  end;
  if !ledger_path <> "" then begin
    (* Verdict names carry the unknown reason ("unknown:timeout", ...), so
       regressions in decidability are visible across runs too. *)
    let label =
      (if !via = "" then "corpus_check" else "corpus_check.via")
      ^ if !category = "" then "" else ":" ^ !category
    in
    append_ledger
      (Alive_trace.Ledger.make ~label ~jobs ~tasks:(List.length results)
         ~budget:{ timeout_s = !timeout; conflict_limit = !conflicts }
         ~wall_s:wall
         ~verdicts:(histogram (List.map (fun (_, v, _) -> v) results))
         before after)
  end;
  if !trace_path <> "" then begin
    Alive_trace.Trace.write_chrome !trace_path;
    Printf.printf "trace written to %s\n" !trace_path
  end;
  if !metrics then Alive_trace.Metrics.render_table ();
  if !metrics_json <> "" then begin
    Json.to_file !metrics_json (Alive_trace.Metrics.to_json ());
    Printf.printf "metrics written to %s\n" !metrics_json
  end;
  (match store with
  | None -> ()
  | Some s ->
      if !via = "" then Store.remove_backing ();
      let st = Store.stats s in
      if !via = "" && (st.appended > 0 || st.segments > 1) then
        Store.compact s;
      if not !quiet then
        Printf.printf
          "store: %d live verdict(s) in %d segment(s), %d appended this run\n"
          st.live st.segments st.appended;
      Store.close s);
  if !mismatches > 0 || lint_errors > 0 then exit 1
  else if !undecided > 0 then exit 2
