(* The observability stack: span well-formedness over a real parallel run,
   the Chrome trace and metrics JSON shapes, histogram percentiles, the JSON
   parser, and the performance ledger with its regression diffing.

   Tests that flip the global tracing/metrics switches restore them (and
   clear the buffers) before returning, so the rest of the suite keeps its
   zero-overhead path. *)

module Trace = Alive_trace.Trace
module Metrics = Alive_trace.Metrics
module Ledger = Alive_trace.Ledger
module Json = Alive_trace.Json
module Engine = Alive_engine.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_tracing f =
  Trace.clear ();
  Metrics.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_phase_timing false;
      Trace.clear ();
      Metrics.reset ())
    f

let get = Option.get
let parse_ok s = Result.get_ok (Json.parse s)

(* A tiny mixed workload: two cheap valid entries, checked on 2 domains. *)
let small_tasks () =
  let task name text =
    {
      Engine.task_name = name;
      widths = None;
      prepare = (fun () -> Alive.Parser.parse_transform text);
    }
  in
  [
    task "add-zero" "Name: t1\n%r = add %a, 0\n=>\n%r = %a\n";
    task "sub-zero" "Name: t2\n%r = sub %a, 0\n=>\n%r = %a\n";
    task "or-zero" "Name: t3\n%r = or %a, 0\n=>\n%r = %a\n";
    task "xor-zero" "Name: t4\n%r = xor %a, 0\n=>\n%r = %a\n";
  ]

(* --- Span well-formedness --- *)

let span_tests =
  [
    Alcotest.test_case "spans balance and nest across a 2-domain run" `Quick
      (fun () ->
        with_tracing (fun () ->
            let report = Engine.verify_corpus ~jobs:2 (small_tasks ()) in
            check_int "no crashes" 0 report.crashed;
            check_int "all spans closed" 0 (Trace.open_spans ());
            let events = Trace.drain () in
            check_bool "events recorded" true (List.length events > 0);
            List.iter
              (fun (e : Trace.event) ->
                check_bool "duration is non-negative" true (e.dur >= 0.0);
                (* The path always ends with the phase itself. *)
                let suffix = ";" ^ e.phase in
                let ok =
                  e.path = e.phase
                  || String.length e.path > String.length suffix
                     && String.sub e.path
                          (String.length e.path - String.length suffix)
                          (String.length suffix)
                        = suffix
                in
                check_bool ("path ends with phase: " ^ e.path) true ok)
              events;
            (* Nesting within a domain: every event's interval lies inside
               its parent's interval (parent = the event on the same domain
               whose path is the prefix). *)
            List.iter
              (fun (e : Trace.event) ->
                match String.rindex_opt e.path ';' with
                | None -> ()
                | Some i ->
                    let parent_path = String.sub e.path 0 i in
                    let parent =
                      List.find_opt
                        (fun (p : Trace.event) ->
                          p.domain = e.domain && p.path = parent_path
                          && p.start <= e.start +. 1e-9
                          && p.start +. p.dur >= e.start +. e.dur -. 1e-9)
                        events
                    in
                    check_bool
                      ("enclosing parent exists for " ^ e.path)
                      true (parent <> None))
              events;
            (* Worker attribution: "task" events come from at most the 2
               domains of the pool, and each carries its task name. *)
            let task_events =
              List.filter (fun (e : Trace.event) -> e.phase = "task") events
            in
            check_int "one task span per task" 4 (List.length task_events);
            let domains =
              List.sort_uniq compare
                (List.map (fun (e : Trace.event) -> e.domain) task_events)
            in
            check_bool "at most 2 worker domains" true
              (List.length domains <= 2)));
    Alcotest.test_case "disabled tracing records nothing" `Quick (fun () ->
        Trace.clear ();
        check_bool "switch off" false (Trace.enabled ());
        ignore (Engine.verify_corpus ~jobs:1 (small_tasks ()));
        check_int "no events" 0 (List.length (Trace.drain ()));
        check_int "no open spans" 0 (Trace.open_spans ()));
    Alcotest.test_case "disabled span sites are cheap" `Quick (fun () ->
        (* The contract is "near-zero when off": a span around a trivial
           computation must cost well under a microsecond. Generous bound
           so CI noise can't trip it. *)
        Trace.clear ();
        let n = 100_000 in
        let sink = ref 0 in
        let t0 = Alive_trace.Clock.now () in
        for i = 1 to n do
          Trace.with_span "off" (fun () -> sink := !sink + i)
        done;
        let per_call = (Alive_trace.Clock.now () -. t0) /. float n in
        check_bool
          (Printf.sprintf "span cost %.0fns < 1000ns" (per_call *. 1e9))
          true (per_call < 1e-6))
  ]

(* --- Chrome trace / collapsed-stack exporters --- *)

let chrome_tests =
  [
    Alcotest.test_case "PR21245 trace has the pipeline phases" `Quick
      (fun () ->
        with_tracing (fun () ->
            (* A warm verdict cache would short-circuit the solver and the
               sat_solve/cdcl spans this test asserts on. *)
            Alive_smt.Vc_cache.clear ();
            let e = get (Alive_suite.Registry.find "PR21245") in
            let t = Alive_suite.Entry.parse e in
            (match Alive.Refine.check ?widths:e.widths t with
            | Alive.Refine.Invalid _ -> ()
            | v ->
                Alcotest.failf "expected Invalid, got %a" Alive.Refine.pp_verdict
                  v);
            (* Round-trip through the serializer and our own parser, as the
               CLI writes it. *)
            let json = parse_ok (Json.to_string (Trace.chrome_json ())) in
            let events = get (Json.to_list (get (Json.member "traceEvents" json))) in
            let complete =
              List.filter
                (fun ev -> Json.member "ph" ev = Some (Json.String "X"))
                events
            in
            let phases =
              List.sort_uniq compare
                (List.filter_map
                   (fun ev -> Option.bind (Json.member "name" ev) Json.to_str)
                   complete)
            in
            check_bool
              ("at least 6 distinct phases: " ^ String.concat "," phases)
              true
              (List.length phases >= 6);
            List.iter
              (fun p ->
                check_bool ("phase present: " ^ p) true (List.mem p phases))
              [ "parse"; "typing"; "vcgen"; "check_typing"; "sat_solve"; "cdcl" ];
            (* Every complete event has the Chrome-required fields; every
               tid that appears has a thread_name metadata row. *)
            List.iter
              (fun ev ->
                check_bool "has ts" true (Json.member "ts" ev <> None);
                check_bool "has dur" true (Json.member "dur" ev <> None);
                check_bool "has pid" true (Json.member "pid" ev <> None);
                check_bool "has tid" true (Json.member "tid" ev <> None))
              complete;
            let tids =
              List.sort_uniq compare
                (List.filter_map
                   (fun ev -> Option.bind (Json.member "tid" ev) Json.to_int)
                   complete)
            in
            let named =
              List.filter_map
                (fun ev ->
                  if Json.member "ph" ev = Some (Json.String "M") then
                    Option.bind (Json.member "tid" ev) Json.to_int
                  else None)
                events
            in
            List.iter
              (fun tid ->
                check_bool
                  (Printf.sprintf "thread_name for tid %d" tid)
                  true (List.mem tid named))
              tids));
    Alcotest.test_case "collapsed stacks cover the span paths" `Quick
      (fun () ->
        with_tracing (fun () ->
            ignore
              (Alive.Refine.check
                 (Alive.Parser.parse_transform
                    "Name: c\n%r = add %a, 0\n=>\n%r = %a\n"));
            let lines =
              String.split_on_char '\n' (String.trim (Trace.collapsed ()))
            in
            check_bool "has lines" true (lines <> []);
            List.iter
              (fun line ->
                match String.rindex_opt line ' ' with
                | None -> Alcotest.failf "malformed collapsed line: %s" line
                | Some i ->
                    let n =
                      int_of_string_opt
                        (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    check_bool ("self time is a number: " ^ line) true
                      (n <> None && get n >= 0))
              lines;
            check_bool "a nested path exists" true
              (List.exists (fun l -> String.contains l ';') lines)))
  ]

(* --- Metrics registry --- *)

let metrics_tests =
  [
    Alcotest.test_case "histogram percentiles within bucket error" `Quick
      (fun () ->
        Metrics.reset ();
        let h = Metrics.histogram "test.latency" in
        (* 1ms..100ms uniformly: p50 ~ 50ms, p90 ~ 90ms. Log-scale buckets
           guarantee <= ~9% relative error; allow 12%. *)
        for i = 1 to 100 do
          Metrics.observe h (float i /. 1000.0)
        done;
        let close p expect =
          let v = Metrics.percentile h p in
          check_bool
            (Printf.sprintf "p%.0f=%.4f ~ %.4f" p v expect)
            true
            (Float.abs (v -. expect) /. expect < 0.12)
        in
        close 50.0 0.050;
        close 90.0 0.090;
        (* Extremes stay inside the observed range (the documented clamp)
           and within bucket error of the true min/max. *)
        let p0 = Metrics.percentile h 0.0 and p100 = Metrics.percentile h 100.0 in
        check_bool "p0 >= min" true (p0 >= 0.001 -. 1e-12);
        check_bool "p0 near min" true (p0 < 0.001 *. 1.12);
        check_bool "p100 <= max" true (p100 <= 0.100 +. 1e-12);
        check_bool "p100 near max" true (p100 > 0.100 /. 1.12);
        Metrics.reset ());
    Alcotest.test_case "counters and snapshot" `Quick (fun () ->
        Metrics.reset ();
        let c = Metrics.counter "test.count" in
        Metrics.incr c;
        Metrics.add c 41;
        check_int "counter value" 42 (Metrics.counter_value c);
        let h = Metrics.histogram "test.h" in
        Metrics.observe h 2.0;
        let snap = Metrics.snapshot () in
        check_bool "counter in snapshot" true
          (List.mem_assoc "test.count" snap.counters);
        let hs =
          List.find
            (fun (s : Metrics.hist_snapshot) -> s.name = "test.h")
            snap.histograms
        in
        check_int "one observation" 1 hs.count;
        check_bool "total accumulated" true (Float.abs (hs.total_s -. 2.0) < 1e-9);
        Metrics.reset ());
    Alcotest.test_case "phase timing feeds histograms without tracing" `Quick
      (fun () ->
        Metrics.reset ();
        Metrics.set_phase_timing true;
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_phase_timing false;
            Metrics.reset ();
            Trace.clear ())
          (fun () ->
            Trace.with_span "phase-only" (fun () -> ignore (Sys.opaque_identity 1));
            check_int "no trace events buffered" 0
              (List.length (Trace.drain ()));
            let snap = Metrics.snapshot () in
            check_bool "histogram recorded" true
              (List.exists
                 (fun (s : Metrics.hist_snapshot) ->
                   s.name = "phase-only" && s.count = 1)
                 snap.histograms)));
    Alcotest.test_case "metrics JSON shape" `Quick (fun () ->
        Metrics.reset ();
        Metrics.observe (Metrics.histogram "ph") 0.5;
        let json = parse_ok (Json.to_string (Metrics.to_json ())) in
        let h = get (Json.member "histograms" json) in
        let ph = get (Json.member "ph" h) in
        check_int "count" 1 (get (Json.to_int (get (Json.member "count" ph))));
        check_bool "p50 present" true (Json.member "p50_s" ph <> None);
        check_bool "p95 present" true (Json.member "p95_s" ph <> None);
        Metrics.reset ())
  ]

(* --- JSON parser --- *)

let json_tests =
  [
    Alcotest.test_case "round-trips the printer" `Quick (fun () ->
        let j =
          Json.Obj
            [
              ("s", Json.String "a\"b\\c\nd\x01e");
              ("n", Json.Int (-42));
              ("f", Json.Float 1.5);
              ("t", Json.Bool true);
              ("nil", Json.Null);
              ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
            ]
        in
        check_bool "roundtrip" true (Json.parse (Json.to_string j) = Ok j));
    Alcotest.test_case "accepts escapes and whitespace" `Quick (fun () ->
        match Json.parse "  { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\n\" ] }  " with
        | Ok (Json.Obj [ ("a", Json.List [ a; b; c ]) ]) ->
            check_bool "int" true (a = Json.Int 1);
            check_bool "float" true (b = Json.Float 25.0);
            check_string "unicode escape" "A\n" (get (Json.to_str c))
        | _ -> Alcotest.fail "parse failed");
    Alcotest.test_case "rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            check_bool ("rejects " ^ s) true (Result.is_error (Json.parse s)))
          [ "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "nul"; "1 2"; "" ]);
    Alcotest.test_case "decodes surrogate pairs to UTF-8" `Quick (fun () ->
        (* U+1D11E MUSICAL SYMBOL G CLEF = \uD834\uDD1E = f0 9d 84 9e *)
        (match Json.parse "\"\\uD834\\uDD1E\"" with
        | Ok (Json.String s) ->
            check_string "G clef" "\xf0\x9d\x84\x9e" s
        | _ -> Alcotest.fail "surrogate pair did not parse");
        (* Lowest and highest astral code points via pairs. *)
        (match Json.parse "\"\\ud800\\udc00\"" with
        | Ok (Json.String s) -> check_string "U+10000" "\xf0\x90\x80\x80" s
        | _ -> Alcotest.fail "U+10000 did not parse");
        (match Json.parse "\"\\uDBFF\\uDFFF\"" with
        | Ok (Json.String s) -> check_string "U+10FFFF" "\xf4\x8f\xbf\xbf" s
        | _ -> Alcotest.fail "U+10FFFF did not parse");
        (* A pair embedded between ordinary characters. *)
        match Json.parse "\"a\\uD83D\\uDE00b\"" with
        | Ok (Json.String s) ->
            check_string "embedded emoji" "a\xf0\x9f\x98\x80b" s
        | _ -> Alcotest.fail "embedded pair did not parse");
    Alcotest.test_case "rejects lone and malformed surrogates" `Quick
      (fun () ->
        List.iter
          (fun s ->
            check_bool ("rejects " ^ s) true (Result.is_error (Json.parse s)))
          [
            (* lone high surrogate: end of string, non-escape after, or a
               non-low-surrogate escape after *)
            "\"\\uD834\"";
            "\"\\uD834x\"";
            "\"\\uD834\\n\"";
            "\"\\uD834\\u0041\"";
            "\"\\uD834\\uD834\"";
            (* lone low surrogate *)
            "\"\\uDD1E\"";
            (* truncated second escape *)
            "\"\\uD834\\u12\"";
            (* non-hex digits, including underscores int_of_string would
               otherwise accept *)
            "\"\\u00_1\"";
            "\"\\u00g1\"";
          ]);
    Alcotest.test_case "non-BMP strings survive a print/parse cycle" `Quick
      (fun () ->
        (* The printer passes raw UTF-8 bytes through untouched; the parser
           must agree with itself on strings that began as \u pairs. *)
        match Json.parse "{\"k\":\"\\uD83D\\uDCA9 done\"}" with
        | Ok j ->
            check_bool "reparse equals" true (Json.parse (Json.to_string j) = Ok j)
        | Error e -> Alcotest.fail e)
  ]

(* --- Ledger --- *)

let sample_record ?(wall = 7.0) ?(conflicts = 1000) ?(label = "test")
    ?(counters = []) () =
  {
    Ledger.schema = Ledger.schema_version;
    timestamp = "2026-01-01T00:00:00Z";
    git_rev = "abc";
    label;
    jobs = 2;
    tasks = 218;
    budget = { timeout_s = 5.0; conflict_limit = 200000 };
    wall_s = wall;
    counters =
      List.sort compare
        (counters
        @ List.filter
            (fun (k, _) -> not (List.mem_assoc k counters))
            [
              ("solve.conflicts", float_of_int conflicts);
              ("refine.queries", 4861.0);
            ]);
    verdicts = [ ("invalid", 8); ("valid", 210) ];
    phases = [ { Ledger.phase = "sat_solve"; count = 4861; total_s = 4.0 } ];
  }

let opt_record ~match_per_s ~firings_per_s =
  sample_record ~label:"optimize" ~wall:1.0 ~conflicts:0
    ~counters:
      [
        ("opt_match_per_s", match_per_s);
        ("opt_firings_per_s", firings_per_s);
        ("opt_match_linear_per_s", 10_000.0);
      ]
    ()

let regressed (d : Ledger.diff) =
  List.map (fun (dl : Ledger.delta) -> dl.metric) d.regressions

let ledger_tests =
  [
    Alcotest.test_case "record JSON round-trips" `Quick (fun () ->
        let r = sample_record ~counters:[ ("solve.sat_s", 1.48909) ] () in
        match Ledger.of_json (parse_ok (Json.to_string (Ledger.to_json r))) with
        | Error e -> Alcotest.fail e
        | Ok r' -> check_bool "identical" true (r = r'));
    Alcotest.test_case "append/load keeps order" `Quick (fun () ->
        let path = Filename.temp_file "ledger" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sys.remove path;
            Ledger.append ~path (sample_record ~label:"first" ());
            Ledger.append ~path (sample_record ~label:"second" ());
            match Ledger.load ~path with
            | Error e -> Alcotest.fail e
            | Ok rs ->
                check_int "two records" 2 (List.length rs);
                check_string "oldest first" "first" (List.nth rs 0).label;
                check_string "newest last" "second" (List.nth rs 1).label));
    Alcotest.test_case "diff flags only >threshold gating growth" `Quick
      (fun () ->
        (* Each of the four gates fires in its own direction past the
           threshold, and not below it; no other counter gates. *)
        let base =
          sample_record ~wall:2.0 ~conflicts:1000
            ~counters:
              [ ("opt_match_per_s", 100_000.0); ("opt_firings_per_s", 15_000.0) ]
            ()
        in
        let scaled metric pct =
          let k = 1.0 +. (pct /. 100.0) in
          if metric = "wall_s" then { base with wall_s = base.wall_s *. k }
          else
            {
              base with
              counters =
                List.map
                  (fun (m, v) -> if m = metric then (m, v *. k) else (m, v))
                  base.counters;
            }
        in
        List.iter
          (fun (metric, sign) ->
            List.iter
              (fun threshold_pct ->
                let fires pct =
                  regressed
                    (Ledger.diff ~threshold_pct ~baseline:base
                       ~latest:(scaled metric pct) ())
                  = [ metric ]
                in
                let name what =
                  Printf.sprintf "%s %s at %.0f%%" metric what threshold_pct
                in
                check_bool (name "past the threshold") true
                  (fires (sign *. (threshold_pct +. 1.0)));
                check_bool (name "below the threshold") false
                  (fires (sign *. (threshold_pct -. 1.0)));
                check_bool (name "the other way") false (fires (-.sign *. 50.0)))
              [ 5.0; 15.0; 60.0; 75.0 ])
          [
            ("wall_s", 1.0);
            ("solve.conflicts", 1.0);
            ("opt_match_per_s", -1.0);
            ("opt_firings_per_s", -1.0);
          ];
        List.iter
          (fun pct ->
            check_int "refine.queries never gates" 0
              (List.length
                 (Ledger.diff ~baseline:base
                    ~latest:(scaled "refine.queries" pct) ())
                   .regressions))
          [ 500.0; -90.0 ]);
    Alcotest.test_case "optimizer throughput gates on drops" `Quick
      (fun () ->
        let base = opt_record ~match_per_s:100_000.0 ~firings_per_s:15_000.0 in
        let dropped = opt_record ~match_per_s:30_000.0 ~firings_per_s:15_000.0 in
        check_bool "70% match-rate drop regresses" true
          (regressed (Ledger.diff ~baseline:base ~latest:dropped ())
          = [ "opt_match_per_s" ]);
        (* Growth is the good direction for a throughput metric. *)
        let faster = opt_record ~match_per_s:250_000.0 ~firings_per_s:40_000.0 in
        check_int "throughput growth passes" 0
          (List.length
             (Ledger.diff ~baseline:base ~latest:faster ()).regressions));
    Alcotest.test_case "a run's counters are the registry's change" `Quick
      (fun () ->
        let snap counters seconds peaks =
          let obj f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
          Metrics.snapshot_of_json
            (Json.Obj
               [
                 ("counters", obj (fun v -> Json.Int v) counters);
                 ("seconds", obj (fun v -> Json.Float v) seconds);
                 ("peaks", obj (fun v -> Json.Int v) peaks);
               ])
        in
        let change before after = Ledger.counters_since before after in
        check_bool "totals and seconds by difference; a new counter whole"
          true
          (change
             (snap [ ("a", 5) ] [ ("s", 1.5) ] [])
             (snap [ ("a", 12); ("b", 3) ] [ ("s", 2.0) ] [])
          = [ ("a", 7.0); ("b", 3.0); ("s", 0.5) ]);
        check_bool "a peak the run raised, or that started at zero" true
          (change
             (snap [] [] [ ("p", 10); ("q", 0) ])
             (snap [] [] [ ("p", 12); ("q", 4) ])
          = [ ("p", 12.0); ("q", 4.0) ]);
        check_bool "a peak the run did not raise is left out" true
          (change (snap [] [] [ ("p", 10) ]) (snap [] [] [ ("p", 10) ]) = []));
    Alcotest.test_case "a counter one record lacks is listed, never gates"
      `Quick (fun () ->
        let base = sample_record ~counters:[ ("store.only_before", 5.0) ] () in
        let latest = sample_record ~counters:[ ("log.lines", 1e9) ] () in
        let latest =
          {
            latest with
            counters = List.remove_assoc "solve.conflicts" latest.counters;
          }
        in
        let d = Ledger.diff ~baseline:base ~latest () in
        let find m =
          List.find (fun (dl : Ledger.delta) -> dl.metric = m) d.deltas
        in
        check_bool "only in latest" true ((find "log.lines").base = None);
        check_bool "only in baseline" true
          ((find "store.only_before").now = None);
        check_bool "a gated figure one record lacks" true
          ((find "solve.conflicts").now = None);
        check_int "nothing gates" 0 (List.length d.regressions));
    Alcotest.test_case "converted baselines keep their values" `Quick
      (fun () ->
        (* [dune runtest] runs in the build's test directory, [dune exec]
           in the project root. *)
        let load file =
          let path =
            List.find_opt Sys.file_exists
              [ Filename.concat "../bench" file; Filename.concat "bench" file ]
          in
          match Ledger.load ~path:(Option.value ~default:file path) with
          | Ok rs -> rs
          | Error e -> Alcotest.fail e
        in
        let counter (r : Ledger.record) m = List.assoc_opt m r.counters in
        (* wall, conflicts, queries and static-proved of every converted
           record, as the pre-conversion files had them; static_proved is
           absent from the two schema-4 records, which predate it. Records
           appended since are new baselines, not conversions, so only each
           file's leading records are checked. *)
        let golden =
          [
            ( "ledger.jsonl",
              [
                (5.33305, 376586, 4861, None);
                (4.33392, 376586, 4861, None);
                (4.26186, 186823, 4861, Some 3719);
                (14.7452, 495311, 18055, Some 14273);
                (1.93318, 65277, 4933, Some 3825);
              ] );
            ("ledger_wide.jsonl", [ (4.1122, 94671, 1606, Some 1184) ]);
            ("ledger_opt.jsonl", [ (64.9244, 0, 0, Some 0) ]);
          ]
        in
        List.iter
          (fun (file, expected) ->
            let records = load file in
            check_bool (file ^ " keeps its converted records") true
              (List.length records >= List.length expected);
            List.iteri
              (fun i (wall, conflicts, queries, static) ->
                let r : Ledger.record = List.nth records i in
                let what = Printf.sprintf "%s %s" file r.timestamp in
                check_bool (what ^ " wall") true (r.wall_s = wall);
                check_bool (what ^ " conflicts") true
                  (counter r "solve.conflicts" = Some (float_of_int conflicts));
                check_bool (what ^ " queries") true
                  (counter r "refine.queries" = Some (float_of_int queries));
                check_bool (what ^ " static-proved") true
                  (counter r "refine.static_proved"
                  = Option.map float_of_int static))
              expected)
          golden;
        let opt = List.hd (load "ledger_opt.jsonl") in
        check_bool "optimizer rates kept" true
          (counter opt "opt_match_per_s" = Some 314377.0
          && counter opt "opt_firings_per_s" = Some 14704.7
          && counter opt "opt_firings" = Some 954694.0));
  ]

(* --- Live-service telemetry: context capture, Prometheus, logs --- *)

module Log = Alive_trace.Log

let prom_lines text = String.split_on_char '\n' text

let prom_value lines name =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    lines

let telemetry_tests =
  [
    Alcotest.test_case "request context captures spans with its rid" `Quick
      (fun () ->
        let ctx = Trace.Context.make ~rid:"req-1" () in
        check_string "client rid wins" "req-1" (Trace.Context.rid_of ctx);
        let v, events =
          Trace.with_capture ctx (fun () ->
              check_bool "context bound" true
                (Trace.Context.rid () = Some "req-1");
              let sp = Trace.begin_span "outer" in
              let inner = Trace.begin_span "inner" in
              Trace.end_span inner;
              Trace.end_span sp;
              17)
        in
        check_int "value through" 17 v;
        check_bool "context unbound after" true (Trace.Context.current () = None);
        check_int "both spans captured" 2 (List.length events);
        List.iter
          (fun (e : Trace.event) ->
            check_bool (e.path ^ " tagged") true
              (List.assoc_opt "rid" e.meta = Some (Trace.Str "req-1")))
          events;
        (* Capture off again: spans vanish without cost. *)
        let sp = Trace.begin_span "after" in
        Trace.end_span sp;
        check_int "nothing buffered" 0 (List.length (Trace.drain ()));
        (* Generated rids are distinct. *)
        check_bool "generated rids differ" true
          (Trace.Context.rid_of (Trace.Context.make ())
          <> Trace.Context.rid_of (Trace.Context.make ())));
    Alcotest.test_case "ring keeps the newest batches within capacity" `Quick
      (fun () ->
        Trace.Ring.clear ();
        Trace.Ring.set_capacity 3;
        Fun.protect ~finally:(fun () ->
            Trace.Ring.clear ();
            Trace.Ring.set_capacity 256)
        @@ fun () ->
        for i = 1 to 5 do
          let ctx = Trace.Context.make ~rid:(Printf.sprintf "r%d" i) () in
          let (), events =
            Trace.with_capture ctx (fun () ->
                let sp = Trace.begin_span "work" in
                Trace.end_span sp)
          in
          Trace.Ring.append events
        done;
        check_int "capacity bounds batches" 3 (Trace.Ring.length ());
        let rids =
          List.filter_map
            (fun (e : Trace.event) ->
              match List.assoc_opt "rid" e.meta with
              | Some (Trace.Str r) -> Some r
              | _ -> None)
            (Trace.Ring.contents ())
        in
        check_bool "oldest evicted, newest kept" true
          (rids = [ "r3"; "r4"; "r5" ]));
    Alcotest.test_case "Prometheus exposition renders all instrument kinds"
      `Quick (fun () ->
        Metrics.reset ();
        Fun.protect ~finally:Metrics.reset @@ fun () ->
        let c = Metrics.counter "promtest.reqs" in
        Metrics.incr c;
        Metrics.incr c;
        Metrics.incr c;
        Metrics.set_gauge (Metrics.gauge "promtest.depth") 7;
        let h = Metrics.histogram "promtest.lat" in
        List.iter (Metrics.observe h) [ 0.001; 0.004; 0.004; 2.0 ];
        let text = Metrics.render_prometheus () in
        let lines = prom_lines text in
        check_bool "counter" true
          (prom_value lines "alive_promtest_reqs_total" = Some 3.0);
        check_bool "gauge" true
          (prom_value lines "alive_promtest_depth" = Some 7.0);
        check_bool "hist count" true
          (prom_value lines "alive_promtest_lat_count" = Some 4.0);
        check_bool "hist sum" true
          (match prom_value lines "alive_promtest_lat_sum" with
          | Some s -> Float.abs (s -. 2.009) < 1e-6
          | None -> false);
        (* Bucket lines are cumulative and closed by +Inf = count. *)
        let buckets =
          List.filter_map
            (fun l ->
              if
                String.length l > 26
                && String.sub l 0 26 = "alive_promtest_lat_bucket{"
              then
                match String.index_opt l ' ' with
                | Some i ->
                    Some
                      (float_of_string
                         (String.sub l (i + 1) (String.length l - i - 1)))
                | None -> None
              else None)
            lines
        in
        check_bool "has buckets" true (List.length buckets >= 2);
        check_bool "cumulative nondecreasing" true
          (List.for_all2 ( <= )
             (List.filteri (fun i _ -> i < List.length buckets - 1) buckets)
             (List.tl buckets));
        check_bool "+Inf closes at count" true
          (List.nth buckets (List.length buckets - 1) = 4.0);
        check_bool "+Inf literal present" true
          (List.exists
             (fun l ->
               Astring.String.is_infix ~affix:"{le=\"+Inf\"}" l
               && String.length l > 18
               && String.sub l 0 18 = "alive_promtest_lat")
             lines));
    Alcotest.test_case "structured log writes leveled JSONL with rids" `Quick
      (fun () ->
        Metrics.reset ();
        let path = Filename.temp_file "alive-log" ".jsonl" in
        Fun.protect ~finally:(fun () ->
            Log.set_sink None;
            Metrics.reset ();
            Sys.remove path)
        @@ fun () ->
        let oc = open_out path in
        Log.set_sink ~level:Log.Info (Some oc);
        check_bool "debug filtered" false (Log.enabled Log.Debug);
        Log.debug "invisible";
        Log.info ~rid:"r-9" ~fields:[ ("op", Json.String "verify") ] "request";
        let ctx = Trace.Context.make ~rid:"r-ctx" () in
        Trace.with_context ctx (fun () -> Log.warn "ambient rid");
        Log.set_sink None;
        close_out_noerr oc;
        let lines =
          In_channel.with_open_text path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        check_int "two lines (debug filtered)" 2 (List.length lines);
        let l1 = parse_ok (List.nth lines 0) in
        check_bool "level" true
          (Option.bind (Json.member "level" l1) Json.to_str = Some "info");
        check_bool "msg" true
          (Option.bind (Json.member "msg" l1) Json.to_str = Some "request");
        check_bool "explicit rid" true
          (Option.bind (Json.member "rid" l1) Json.to_str = Some "r-9");
        check_bool "field" true
          (Option.bind (Json.member "op" l1) Json.to_str = Some "verify");
        check_bool "timestamp present" true (Json.member "ts" l1 <> None);
        let l2 = parse_ok (List.nth lines 1) in
        check_bool "rid from bound context" true
          (Option.bind (Json.member "rid" l2) Json.to_str = Some "r-ctx"));
  ]

(* --- Whole-pipeline smoke: instrumented corpus slice --- *)

let smoke_tests =
  [
    Alcotest.test_case "instrumented slice matches uninstrumented verdicts"
      `Slow (fun () ->
        let entries =
          List.filteri (fun i _ -> i < 20) Alive_suite.Registry.all
        in
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
        (* Both runs start from a cold verdict cache: the first would
           otherwise warm it for the second, which then records no
           sat_solve work at all. *)
        Alive_smt.Vc_cache.clear ();
        let t0 = Alive_trace.Clock.now () in
        let plain = Engine.verify_corpus ~jobs:1 tasks in
        let plain_wall = Alive_trace.Clock.now () -. t0 in
        check_int "nothing buffered when off" 0 (List.length (Trace.drain ()));
        let traced =
          with_tracing (fun () ->
              Metrics.set_phase_timing true;
              Alive_smt.Vc_cache.clear ();
              let r = Engine.verify_corpus ~jobs:1 tasks in
              let events = Trace.drain () in
              check_bool "one task span per entry" true
                (List.length
                   (List.filter
                      (fun (e : Trace.event) -> e.phase = "task")
                      events)
                = List.length entries);
              let snap = Metrics.snapshot () in
              check_bool "sat_solve histogram populated" true
                (List.exists
                   (fun (s : Metrics.hist_snapshot) ->
                     s.name = "sat_solve" && s.count > 0)
                   snap.histograms);
              r)
        in
        List.iter2
          (fun a b ->
            check_string
              ("verdict stable for " ^ a.Engine.name)
              (Engine.verdict_name a) (Engine.verdict_name b))
          plain.results traced.results;
        (* Tracing off must stay cheap; bound loose enough for CI noise
           (the real near-zero guarantee is the microbench above). *)
        check_bool
          (Printf.sprintf "untraced slice %.2fs vs traced %.2fs" plain_wall
             traced.wall)
          true
          (plain_wall < 2.0 *. traced.wall +. 0.5))
  ]

let suite =
  ( "trace",
    span_tests @ chrome_tests @ metrics_tests @ json_tests @ ledger_tests
    @ telemetry_tests @ smoke_tests )
