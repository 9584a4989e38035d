(* The parallel verification engine and the budget machinery: a query that
   exhausts its budget must come back as Unknown — not an exception, not a
   hang — while the rest of the batch still completes; parallel scheduling
   must agree with the sequential checker verdict for verdict. *)

module T = Alive_smt.Term
module Solve = Alive_smt.Solve
module Refine = Alive.Refine
module Engine = Alive_engine.Engine
module Json = Alive_engine.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Alive.Parser.parse_transform

(* A division identity: the static tier's polynomial normalizer cannot
   touch udiv, so the CDCL solver must genuinely search through the
   divider circuit — reliable fuel for budget exhaustion. *)
let hard_text =
  "Name: hard-udiv\n\
   Pre: isPowerOf2(C1)\n\
   %r = udiv %x, C1\n\
   =>\n\
   %r = lshr %x, log2(C1)\n"

let easy_text = "Name: easy-add-zero\n%r = add %a, 0\n=>\n%r = %a\n"

(* --- Budget paths --- *)

let budget_tests =
  [
    Alcotest.test_case "conflict budget yields Unknown, not an exception"
      `Quick (fun () ->
        let b = Solve.budget ~conflict_limit:10 () in
        match Refine.check ~widths:[ 16 ] ~budget:b (parse hard_text) with
        | Refine.Unknown u ->
            check_bool "reason is the conflict limit" true
              (u.reason = Solve.Conflict_limit)
        | v ->
            Alcotest.failf "expected Unknown, got %s"
              (Format.asprintf "%a" Refine.pp_verdict v));
    Alcotest.test_case "expired deadline yields Unknown Timeout" `Quick
      (fun () ->
        (* A deadline in the past: the first restart-boundary check fires
           before any search happens, so this cannot be flaky. *)
        let b = Solve.budget ~timeout:1e-9 () in
        match Refine.check ~widths:[ 16 ] ~budget:b (parse hard_text) with
        | Refine.Unknown u ->
            check_bool "reason is the deadline" true (u.reason = Solve.Timeout)
        | v ->
            Alcotest.failf "expected Unknown, got %s"
              (Format.asprintf "%a" Refine.pp_verdict v));
    Alcotest.test_case "trivial queries still decide under a tiny budget"
      `Quick (fun () ->
        (* Constant folding answers without search; the budget must not
           turn a free Valid into an Unknown. *)
        let b = Solve.budget ~timeout:1e-9 ~conflict_limit:0 () in
        check_bool "valid" true
          (Refine.is_valid_verdict
             (Refine.check ~widths:[ 4 ] ~budget:b
                (parse "Name: id\n%r = add %a, 0\n=>\n%r = %a\n"))));
    Alcotest.test_case "check_valid_ef reports Cegar_limit instead of raising"
      `Quick (fun () ->
        let u = T.var "u" (T.Bv 4) and x = T.var "x" (T.Bv 4) in
        match
          Solve.check_valid_ef ~max_iterations:0 ~exists:[ ("u", T.Bv 4) ]
            (T.eq u x)
        with
        | `Unknown (Solve.Cegar_limit 0) -> ()
        | `Unknown r ->
            Alcotest.failf "wrong reason: %s" (Solve.reason_to_string r)
        | `Valid | `Invalid _ ->
            Alcotest.fail "a 0-iteration CEGAR loop cannot decide");
    Alcotest.test_case "budget max_cegar is the default iteration cap" `Quick
      (fun () ->
        let u = T.var "u" (T.Bv 4) and x = T.var "x" (T.Bv 4) in
        let b = Solve.budget ~max_cegar:0 () in
        match
          Solve.check_valid_ef ~budget:b ~exists:[ ("u", T.Bv 4) ] (T.eq u x)
        with
        | `Unknown (Solve.Cegar_limit _) -> ()
        | _ -> Alcotest.fail "expected Cegar_limit");
    Alcotest.test_case "telemetry accumulates across queries" `Quick (fun () ->
        let tel = Solve.telemetry () in
        let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 8) in
        (* (x + y) - y = x: the smart constructors cannot fold this away,
           so the solver genuinely bit-blasts and searches. *)
        (match
           Solve.is_valid ~telemetry:tel (T.eq (T.sub (T.add x y) y) x)
         with
        | `Valid -> ()
        | _ -> Alcotest.fail "(x + y) - y = x is valid");
        check_bool "solver was invoked" true (tel.checks >= 1);
        check_bool "clauses recorded" true (tel.clauses > 0);
        let total = Solve.telemetry () in
        Solve.add_telemetry ~into:total tel;
        Solve.add_telemetry ~into:total tel;
        check_int "add_telemetry sums" (2 * tel.checks) total.checks);
  ]

(* --- Engine scheduling --- *)

let pool_tests =
  [
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        let outcomes =
          Engine.map ~jobs:4 ~label:string_of_int
            (fun x -> x * x)
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        List.iteri
          (fun i (o : int Engine.outcome) ->
            check_int "index" i o.index;
            match o.result with
            | Ok sq -> check_int "value" ((i + 1) * (i + 1)) sq
            | Error e -> Alcotest.failf "task %d crashed: %s" i e.message)
          outcomes);
    Alcotest.test_case "a raising task is isolated, not fatal" `Quick
      (fun () ->
        let outcomes =
          Engine.map ~jobs:3 ~label:string_of_int
            (fun x -> if x = 2 then failwith "boom" else x + 1)
            [ 1; 2; 3 ]
        in
        match List.map (fun (o : int Engine.outcome) -> o.result) outcomes with
        | [ Ok 2; Error e; Ok 4 ] ->
            check_bool "exception text preserved" true
              (Astring.String.is_infix ~affix:"boom" e.message)
        | _ -> Alcotest.fail "wrong outcomes");
    Alcotest.test_case "parallel typing check agrees with sequential" `Quick
      (fun () ->
        let t = parse easy_text in
        let seq = Refine.run t in
        let par = Engine.check_parallel ~jobs:4 t in
        check_bool "both valid" true
          (Refine.is_valid_verdict seq.verdict
          && Refine.is_valid_verdict par.verdict);
        check_int "same typings checked" seq.stats.typings_done
          par.stats.typings_done;
        check_int "same query count" seq.stats.queries par.stats.queries);
    Alcotest.test_case "parallel counterexample is deterministic" `Quick
      (fun () ->
        (* An invalid transform: the parallel reduction must pick the same
           (lowest-index) typing's counterexample the sequential scan finds. *)
        let text = "Name: bad\n%r = udiv %a, %b\n=>\n%r = lshr %a, 1\n" in
        let seq = Refine.run (parse text) in
        let par = Engine.check_parallel ~jobs:4 (parse text) in
        match (seq.verdict, par.verdict) with
        | Refine.Invalid c1, Refine.Invalid c2 ->
            check_bool "same typing" true (c1.typing = c2.typing);
            check_string "same location" c1.at c2.at;
            check_bool "same kind" true (c1.kind = c2.kind)
        | _ -> Alcotest.fail "expected Invalid from both");
  ]

(* --- Corpus-level behaviour --- *)

let corpus_tests =
  [
    Alcotest.test_case
      "one pathological task degrades; the batch completes" `Quick (fun () ->
        let task name text widths =
          {
            Engine.task_name = name;
            widths;
            prepare = (fun () -> parse text);
          }
        in
        let tasks =
          [
            task "easy-1" easy_text None;
            task "hard" hard_text (Some [ 16 ]);
            task "easy-2" "Name: e2\n%r = sub %a, 0\n=>\n%r = %a\n" None;
            {
              Engine.task_name = "crashy";
              widths = None;
              prepare = (fun () -> failwith "synthetic parse failure");
            };
          ]
        in
        let budget = Solve.budget ~conflict_limit:10 () in
        let report = Engine.verify_corpus ~jobs:2 ~budget tasks in
        check_int "all tasks reported" 4 (List.length report.results);
        check_int "one crash" 1 report.crashed;
        let by_name n =
          List.find (fun (r : Engine.task_result) -> r.name = n) report.results
        in
        check_string "easy-1 verified" "valid" (Engine.verdict_name (by_name "easy-1"));
        check_string "easy-2 verified" "valid" (Engine.verdict_name (by_name "easy-2"));
        check_string "hard gave up" "unknown:conflicts"
          (Engine.verdict_name (by_name "hard"));
        check_string "crash isolated" "crash" (Engine.verdict_name (by_name "crashy"));
        check_bool "stats flowed up" true (report.total.queries > 0);
        (* The crash's Error payload carries the exception text and a
           backtrace, and both reach the JSON report. *)
        (match (by_name "crashy").outcome with
        | Error e ->
            check_bool "exception text" true
              (Astring.String.is_infix ~affix:"synthetic parse failure"
                 e.Engine.message)
        | Ok _ -> Alcotest.fail "crashy did not crash");
        let json = Engine.report_json report in
        let results =
          match Json.member "results" json with
          | Some (Json.List l) -> l
          | _ -> Alcotest.fail "no results in report JSON"
        in
        let crashy =
          List.find
            (fun r -> Json.member "name" r = Some (Json.String "crashy"))
            results
        in
        check_bool "error text in JSON" true
          (match Json.member "error" crashy with
          | Some (Json.String _) -> true
          | _ -> false);
        check_bool "backtrace field in JSON" true
          (match Json.member "backtrace" crashy with
          | Some (Json.String _) -> true
          | _ -> false));
    Alcotest.test_case "parallel corpus verdicts equal sequential" `Slow
      (fun () ->
        let entries = Alive_suite.Registry.by_file "Shifts" in
        check_bool "have entries" true (entries <> []);
        let tasks =
          List.map
            (fun (e : Alive_suite.Entry.t) ->
              {
                Engine.task_name = e.name;
                widths = e.widths;
                prepare = (fun () -> Alive_suite.Entry.parse e);
              })
            entries
        in
        let seq = Engine.verify_corpus ~jobs:1 tasks in
        let par = Engine.verify_corpus ~jobs:4 tasks in
        List.iter2
          (fun (a : Engine.task_result) (b : Engine.task_result) ->
            check_string ("verdict for " ^ a.name) (Engine.verdict_name a)
              (Engine.verdict_name b))
          seq.results par.results;
        check_int "same total queries" seq.total.queries par.total.queries);
  ]

(* --- JSON --- *)

let json_tests =
  [
    Alcotest.test_case "printer escapes and nests" `Quick (fun () ->
        check_string "object"
          "{\"a\":[1,true,null],\"s\":\"x\\\"y\\n\"}"
          (Json.to_string
             (Json.Obj
                [
                  ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
                  ("s", Json.String "x\"y\n");
                ])));
    Alcotest.test_case "report serializes" `Quick (fun () ->
        let report =
          Engine.verify_corpus ~jobs:1
            [
              {
                Engine.task_name = "easy";
                widths = None;
                prepare = (fun () -> parse easy_text);
              };
            ]
        in
        let s = Json.to_string (Engine.report_json report) in
        check_bool "mentions the task" true
          (Astring.String.is_infix ~affix:"\"easy\"" s);
        check_bool "mentions a verdict" true
          (Astring.String.is_infix ~affix:"\"valid\"" s));
  ]

(* --- The counter table ---

   Every solver counter is declared once, as a row of [Solve]'s table, and
   each report is derived from it. These tests hold the table to the
   record from outside: a field-wise oracle written against the record
   itself, and the registry checked against an engine report. *)

let random_telemetry =
  QCheck.Gen.(
    map2
      (fun counts sat_time ->
        match counts with
        | [ checks; conflicts; decisions; propagations; restarts; clauses;
            vars; peak_clauses; peak_vars; cegar_iterations; cache_hits;
            cache_misses; cache_evictions; store_hits; store_misses;
            static_proved; aig_nodes_in; aig_nodes_out ] ->
            { (Solve.telemetry ()) with
              Solve.checks; sat_time; conflicts; decisions; propagations;
              restarts; clauses; vars; peak_clauses; peak_vars;
              cegar_iterations; cache_hits; cache_misses; cache_evictions;
              store_hits; store_misses; static_proved; aig_nodes_in;
              aig_nodes_out }
        | _ -> assert false)
      (list_repeat 18 (int_bound 1_000_000))
      (float_bound_inclusive 100.0))

let table_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"add_telemetry is the field-wise sum, max for the peaks"
         ~count:200
         (QCheck.make (QCheck.Gen.pair random_telemetry random_telemetry))
         (fun (a, b) ->
           (* A copy: add_telemetry writes into its target. *)
           let into = { a with Solve.checks = a.checks } in
           Solve.add_telemetry ~into b;
           into
           = {
               a with
               Solve.checks = a.checks + b.checks;
               sat_time = a.sat_time +. b.sat_time;
               conflicts = a.conflicts + b.conflicts;
               decisions = a.decisions + b.decisions;
               propagations = a.propagations + b.propagations;
               restarts = a.restarts + b.restarts;
               clauses = a.clauses + b.clauses;
               vars = a.vars + b.vars;
               peak_clauses = max a.peak_clauses b.peak_clauses;
               peak_vars = max a.peak_vars b.peak_vars;
               cegar_iterations = a.cegar_iterations + b.cegar_iterations;
               cache_hits = a.cache_hits + b.cache_hits;
               cache_misses = a.cache_misses + b.cache_misses;
               cache_evictions = a.cache_evictions + b.cache_evictions;
               store_hits = a.store_hits + b.store_hits;
               store_misses = a.store_misses + b.store_misses;
               static_proved = a.static_proved + b.static_proved;
               aig_nodes_in = a.aig_nodes_in + b.aig_nodes_in;
               aig_nodes_out = a.aig_nodes_out + b.aig_nodes_out;
             }));
    Alcotest.test_case "the registry's change over a run equals its report"
      `Slow (fun () ->
        let tasks =
          List.filteri (fun i _ -> i < 20) Alive_suite.Registry.all
          |> List.map (fun (e : Alive_suite.Entry.t) ->
                 {
                   Engine.task_name = e.name;
                   widths = e.widths;
                   prepare = (fun () -> Alive_suite.Entry.parse e);
                 })
        in
        (* From zero, so the peaks are the run's own. *)
        Alive_trace.Metrics.reset ();
        Alive_smt.Vc_cache.clear ();
        let before = Alive_trace.Metrics.snapshot () in
        let report = Engine.verify_corpus ~jobs:1 tasks in
        let change =
          Alive_trace.Ledger.counters_since before
            (Alive_trace.Metrics.snapshot ())
        in
        let total = Solve.report report.total.telemetry in
        check_bool "the slice solved something" true
          (List.assoc "conflicts" total <> Solve.Count 0);
        List.iter
          (fun (name, metric) ->
            let recorded = List.assoc metric change in
            match List.assoc name total with
            | Solve.Count n ->
                Alcotest.(check (float 0.0)) metric (float_of_int n) recorded
            | Solve.Seconds s -> Alcotest.(check (float 1e-6)) metric s recorded)
          Solve.counters;
        Alcotest.(check (float 0.0)) "refine.queries"
          (float_of_int report.total.queries)
          (List.assoc "refine.queries" change);
        let json = List.map fst (Engine.stats_fields report.total) in
        List.iter
          (fun (name, _) ->
            check_bool (name ^ " in JSON") true (List.mem name json))
          Solve.counters);
  ]

let suite =
  ( "engine",
    budget_tests @ pool_tests @ corpus_tests @ json_tests @ table_tests )
