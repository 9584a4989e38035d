(* Benchmark and experiment harness: one target per table/figure of the
   paper's evaluation (see DESIGN.md's per-experiment index). Running with
   no arguments executes everything in order; a single argument selects one
   target. Timing experiments use the wall clock (compile-time also runs
   under Bechamel); shape experiments print the same rows/series the paper
   reports. *)

let section title =
  Printf.printf "\n=====================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=====================================================\n%!"

(* --- JSON archiving: targets record machine-readable results, written as
   BENCH_<target>.json so CI can diff perf across PRs. --- *)

module Json = Alive_trace.Json

let record_json name (j : Json.t) =
  let path = Printf.sprintf "BENCH_%s.json" name in
  Json.to_file path j;
  Printf.printf "  [json] wrote %s\n%!" path

(* --- Bechamel helpers --- *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" tests) in
  let results =
    List.map (fun i -> Analyze.all ols i raw) [ Toolkit.Instance.monotonic_clock ]
  in
  let results = Analyze.merge ols [ Toolkit.Instance.monotonic_clock ] results in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Bechamel.Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Printf.printf "  %-40s %12.0f ns/run\n" name t
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        tbl)
    results

(* --- Corpus helpers --- *)

let corpus = Alive_suite.Registry.all

let verify_entry (e : Alive_suite.Entry.t) =
  let t = Alive_suite.Entry.parse e in
  Alive.Refine.check ?widths:e.widths t

let valid_rules = lazy (Alive_opt.Matcher.corpus_rules ())

(* --- Tables 1 & 2: semantics cross-check --- *)

(* For each instruction shape, build the identity transform, extract the
   verifier's definedness/poison-freedom constraints, and compare them
   exhaustively at i4 against the concrete interpreter. Both read Tables 1
   and 2 from lib/ir/semantics.ml, over terms and over bit-vectors; this
   checks the two algebras and the path from an Alive template to its VC. *)
let semantics_crosscheck ~poison () =
  let cases =
    if poison then
      [ ("add nsw", Ir.Add, [ Ir.Nsw ]); ("add nuw", Ir.Add, [ Ir.Nuw ]);
        ("sub nsw", Ir.Sub, [ Ir.Nsw ]); ("sub nuw", Ir.Sub, [ Ir.Nuw ]);
        ("mul nsw", Ir.Mul, [ Ir.Nsw ]); ("mul nuw", Ir.Mul, [ Ir.Nuw ]);
        ("shl nsw", Ir.Shl, [ Ir.Nsw ]); ("shl nuw", Ir.Shl, [ Ir.Nuw ]);
        ("sdiv exact", Ir.Sdiv, [ Ir.Exact ]); ("udiv exact", Ir.Udiv, [ Ir.Exact ]);
        ("ashr exact", Ir.Ashr, [ Ir.Exact ]); ("lshr exact", Ir.Lshr, [ Ir.Exact ]) ]
    else
      [ ("sdiv", Ir.Sdiv, []); ("udiv", Ir.Udiv, []); ("srem", Ir.Srem, []);
        ("urem", Ir.Urem, []); ("shl", Ir.Shl, []); ("lshr", Ir.Lshr, []);
        ("ashr", Ir.Ashr, []) ]
  in
  let w = 4 in
  List.iter
    (fun (label, op, attrs) ->
      let alive_text =
        Printf.sprintf "%%r = %s %%a, %%b\n=>\n%%r = %s %%a, %%b\n" label label
      in
      let t = Alive.Parser.parse_transform alive_text in
      let typing =
        match Alive.Typing.enumerate ~widths:[ w ] t with
        | Ok [ env ] -> env
        | _ -> failwith "typing failed"
      in
      let vc = Alive.Vcgen.run typing t in
      let iv = List.assoc "%r" vc.src.defs in
      let mismatches = ref 0 in
      for a = 0 to (1 lsl w) - 1 do
        for b = 0 to (1 lsl w) - 1 do
          let av = Bitvec.of_int ~width:w a and bv = Bitvec.of_int ~width:w b in
          let model =
            Alive_smt.Model.of_list
              [ ("%a", Alive_smt.Term.Vbv av); ("%b", Alive_smt.Term.Vbv bv) ]
          in
          let vc_says =
            Alive_smt.Model.holds model
              (if poison then iv.poison_free else iv.defined)
          in
          let f =
            {
              Ir.fname = "probe";
              params = [ ("a", w); ("b", w) ];
              body = [ { Ir.name = "r"; width = w;
                         inst = Ir.Binop (op, attrs, Ir.Var "a", Ir.Var "b") } ];
              ret = Ir.Var "r";
            }
          in
          let interp_says =
            match Interp.run f [ av; bv ] with
            | Ok Interp.Ub -> false
            | Ok (Interp.Ret Interp.Poison) -> not poison
            | Ok (Interp.Ret (Interp.Val _)) -> true
            | Error _ -> false
          in
          (* For the poison table, compare only on defined inputs. *)
          let comparable =
            (not poison) || Alive_smt.Model.holds model iv.defined
          in
          if comparable && vc_says <> interp_says then incr mismatches
        done
      done;
      Printf.printf "  %-12s constraint agrees with interpreter on %d/256 inputs%s\n"
        label
        (256 - !mismatches)
        (if !mismatches = 0 then "" else "  MISMATCH!"))
    cases

let table1 () =
  section "Table 1: definedness constraints (VC gen vs interpreter, exhaustive at i4)";
  semantics_crosscheck ~poison:false ()

let table2 () =
  section "Table 2: poison-free constraints (VC gen vs interpreter, exhaustive at i4)";
  semantics_crosscheck ~poison:true ()

(* --- Table 3 --- *)

let paper_table3 =
  (* file, total opts in LLVM, translated by the paper, bugs found *)
  [ ("AddSub", 67, 49, 2); ("AndOrXor", 165, 131, 0); ("LoadStoreAlloca", 28, 17, 0);
    ("MulDivRem", 65, 44, 6); ("Select", 74, 52, 0); ("Shifts", 43, 41, 0) ]

let table3 () =
  section "Table 3: corpus verification by InstCombine file";
  Printf.printf "  %-18s %12s %12s %8s %14s %12s\n" "File" "paper opts"
    "paper transl" "bugs" "ours in corpus" "ours bugs";
  let total_ours = ref 0 and total_bugs = ref 0 in
  List.iter
    (fun (file, opts, transl, bugs) ->
      let entries = Alive_suite.Registry.by_file file in
      let found_bugs =
        List.length
          (List.filter
             (fun e ->
               match verify_entry e with
               | Alive.Refine.Invalid _ -> true
               | _ -> false)
             entries)
      in
      total_ours := !total_ours + List.length entries;
      total_bugs := !total_bugs + found_bugs;
      Printf.printf "  %-18s %12d %12d %8d %14d %12d\n" file opts transl bugs
        (List.length entries) found_bugs)
    paper_table3;
  Printf.printf "  %-18s %12d %12d %8d %14d %12d\n" "Total" 1028 334 8 !total_ours
    !total_bugs;
  Printf.printf
    "  (paper: 334 translated, 8 wrong; ours: %d in corpus, %d verified wrong)\n"
    !total_ours !total_bugs

(* --- Fig. 5 --- *)

let fig5 () =
  section "Fig. 5: counterexample for PR21245";
  match Alive_suite.Registry.find "PR21245" with
  | None -> print_endline "  PR21245 missing from corpus!"
  | Some e ->
      let t = Alive_suite.Entry.parse e in
      print_string (Alive.Refine.render_verdict t (Alive.Refine.check t))

(* --- Fig. 8 --- *)

let fig8 () =
  section "Fig. 8: the eight incorrect InstCombine transformations";
  List.iter
    (fun (e : Alive_suite.Entry.t) ->
      if
        e.expected = Alive_suite.Entry.Expect_invalid
        && String.length e.name > 2
        && String.sub e.name 0 2 = "PR"
      then begin
        let t0 = Unix.gettimeofday () in
        let verdict = verify_entry e in
        Printf.printf "  %-10s %6.2fs  %s\n%!" e.name
          (Unix.gettimeofday () -. t0)
          (match verdict with
          | Alive.Refine.Invalid cex ->
              "caught: " ^ Alive.Counterexample.describe cex.kind
          | v -> Format.asprintf "NOT CAUGHT: %a" Alive.Refine.pp_verdict v)
      end)
    corpus

(* --- Fig. 9 --- *)

let fig9 () =
  section "Fig. 9: optimization firing counts on the synthetic workload";
  let rules = Lazy.force valid_rules in
  let funcs = Alive_opt.Workload.generate Alive_opt.Workload.default rules in
  let _, stats = Alive_opt.Pass.run_module ~rules funcs in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 stats in
  Printf.printf "  workload: %d functions, %d rules, %d total invocations, %d rules fired\n"
    (List.length funcs) (List.length rules) total (List.length stats);
  Printf.printf "  top 10 optimizations:\n";
  List.iteri
    (fun i (n, c) -> if i < 10 then Printf.printf "    %2d. %-45s %6d\n" (i + 1) n c)
    stats;
  let topk k =
    let top = List.filteri (fun i _ -> i < k) stats in
    100.0 *. float (List.fold_left (fun a (_, n) -> a + n) 0 top) /. float (max 1 total)
  in
  Printf.printf "  top-10 share: %.1f%% (paper: ~70%%)\n" (topk 10);
  Printf.printf "  series (rank, invocations) for the log-scale figure:\n   ";
  List.iteri (fun i (_, c) -> if i < 40 then Printf.printf " (%d,%d)" (i + 1) c) stats;
  print_newline ()

(* --- §6.1 verification time --- *)

let verify_time () =
  section "§6.1: verification time over the corpus";
  let timed =
    List.map
      (fun (e : Alive_suite.Entry.t) ->
        let t0 = Unix.gettimeofday () in
        ignore (verify_entry e);
        (e.name, Unix.gettimeofday () -. t0))
      corpus
  in
  let times = List.map snd timed in
  let sorted = List.sort compare times in
  let n = List.length sorted in
  let nth k = List.nth sorted k in
  let total = List.fold_left ( +. ) 0.0 times in
  Printf.printf
    "  %d transformations: median %.2f ms, p90 %.2f ms, max %.2fs, total %.1fs\n"
    n
    (1000.0 *. nth (n / 2))
    (1000.0 *. nth (n * 9 / 10))
    (nth (n - 1)) total;
  Printf.printf "  (paper: \"usually a few seconds\"; division/multiplication slowest)\n";
  record_json "verify_time"
    (Json.Obj
       [
         ("transforms", Json.Int n);
         ("median_s", Json.Float (nth (n / 2)));
         ("p90_s", Json.Float (nth (n * 9 / 10)));
         ("max_s", Json.Float (nth (n - 1)));
         ("total_s", Json.Float total);
         ( "per_entry",
           Json.Obj (List.map (fun (name, t) -> (name, Json.Float t)) timed) );
       ])

(* --- §6.3 attribute inference --- *)

let infer () =
  section "§6.3: nsw/nuw/exact attribute inference over the corpus";
  let strengthened = ref 0 and weakened = ref 0 and eligible = ref 0 in
  List.iter
    (fun (e : Alive_suite.Entry.t) ->
      if e.expected = Alive_suite.Entry.Expect_valid then begin
        let t = Alive_suite.Entry.parse e in
        if Alive.Attr_infer.candidate_positions t <> [] then begin
          incr eligible;
          match Alive.Attr_infer.infer ?widths:e.widths t with
          | Some o ->
              if o.target_strengthened then begin
                incr strengthened;
                let added =
                  List.filter
                    (fun (p : Alive.Attr_infer.position) ->
                      not
                        (List.exists
                           (fun (q : Alive.Attr_infer.position) ->
                             q.side = `Tgt
                             && String.equal q.name p.name
                             && q.attr = p.attr)
                           o.original))
                    o.strongest_target
                in
                Printf.printf "  strengthened: %-45s +%s\n" e.name
                  (String.concat ","
                     (List.map
                        (fun (p : Alive.Attr_infer.position) ->
                          Alive.Ast.attr_name p.attr)
                        added))
              end;
              if o.source_weakened then incr weakened
          | None -> ()
        end
      end)
    corpus;
  Printf.printf
    "  eligible: %d, postcondition strengthened: %d (%.0f%%), precondition weakened: %d\n"
    !eligible !strengthened
    (100.0 *. float !strengthened /. float (max 1 !eligible))
    !weakened;
  Printf.printf "  (paper: 70/334 = 21%% strengthened, 1 weakened)\n"

(* --- §6.4 compile time --- *)

let compile_time () =
  section "§6.4: optimizer time — full pass (baseline) vs Alive-only subset";
  let rules = Lazy.force valid_rules in
  let config = { Alive_opt.Workload.default with functions = 30 } in
  let funcs = Alive_opt.Workload.generate config rules in
  let alive_only () =
    List.iter (fun f -> ignore (Alive_opt.Pass.run ~rules f)) funcs
  in
  let full () =
    List.iter (fun f -> ignore (Alive_opt.Baseline.run ~rules f)) funcs
  in
  let time label f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "  %-32s %.3fs\n%!" label dt;
    dt
  in
  (* One untimed run of each side first: the first pass builds the
     compiled rule tree, which would otherwise be billed to whichever side
     is timed first. *)
  alive_only ();
  full ();
  let t_alive = time "Alive-only pass (LLVM+Alive)" alive_only in
  let t_full = time "full pass (stock LLVM)" full in
  Printf.printf "  LLVM+Alive is %.0f%% faster to run (paper: 7%% faster compiles)\n"
    (100.0 *. (t_full -. t_alive) /. t_full);
  record_json "compile_time"
    (Json.Obj
       [
         ("alive_only_s", Json.Float t_alive);
         ("full_baseline_s", Json.Float t_full);
       ]);
  run_bechamel
    [
      Bechamel.Test.make ~name:"alive-only" (Bechamel.Staged.stage alive_only);
      Bechamel.Test.make ~name:"full-baseline" (Bechamel.Staged.stage full);
    ]

(* --- §6.4 run time (static cost of optimized code) --- *)

let run_time () =
  section "§6.4: cost of generated code — baseline vs Alive-only subset";
  let rules = Lazy.force valid_rules in
  let funcs = Alive_opt.Workload.generate Alive_opt.Workload.default rules in
  let cost fs = List.fold_left (fun a f -> a + Cost.func_cost f) 0 fs in
  let alive_opt = List.map (fun f -> fst (Alive_opt.Pass.run ~rules f)) funcs in
  let full_opt = List.map (fun f -> fst (Alive_opt.Baseline.run ~rules f)) funcs in
  let c0 = cost funcs and c1 = cost alive_opt and c2 = cost full_opt in
  Printf.printf "  unoptimized cost:        %8d\n" c0;
  Printf.printf "  LLVM+Alive (subset):     %8d\n" c1;
  Printf.printf "  stock LLVM (full pass):  %8d\n" c2;
  Printf.printf
    "  subset output is %.1f%% costlier than full (paper: 3%% slower code)\n"
    (100.0 *. float (c1 - c2) /. float (max 1 c2));
  record_json "run_time"
    (Json.Obj
       [
         ("unoptimized_cost", Json.Int c0);
         ("alive_subset_cost", Json.Int c1);
         ("full_pass_cost", Json.Int c2);
       ])

(* --- §3.3.3 memory-encoding ablation --- *)

let mem_encoding () =
  section
    "§3.3.3: eager encoding (shared reads, no extra variables) vs classical \
Ackermann expansion";
  let entries = Alive_suite.Registry.by_file "LoadStoreAlloca" in
  let time share =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (e : Alive_suite.Entry.t) ->
        let t = Alive_suite.Entry.parse e in
        ignore (Alive.Refine.check ?widths:e.widths ~share_memory_reads:share t))
      entries;
    Unix.gettimeofday () -. t0
  in
  (* Warm up hash-consing tables once. *)
  ignore (time true);
  let eager = time true in
  let expansion = time false in
  Printf.printf "  %d memory transformations, verified end to end:\n"
    (List.length entries);
  Printf.printf "  eager (shared base reads):        %.3fs\n" eager;
  Printf.printf "  Ackermann expansion (fresh vars): %.3fs\n" expansion;
  Printf.printf
    "  eager is %.1fx faster (paper: eager beats the array theory / lazy \
expansion)\n"
    (expansion /. Float.max 1e-9 eager);
  record_json "mem_encoding"
    (Json.Obj
       [
         ("eager_s", Json.Float eager);
         ("ackermann_s", Json.Float expansion);
         ("speedup", Json.Float (expansion /. Float.max 1e-9 eager));
       ])

(* --- main --- *)

let targets =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig5", fig5);
    ("fig8", fig8);
    ("fig9", fig9);
    ("verify-time", verify_time);
    ("infer", infer);
    ("compile-time", compile_time);
    ("run-time", run_time);
    ("mem-encoding", mem_encoding);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) targets
  | [ name ] -> (
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown target %s; available: %s\n" name
            (String.concat ", " (List.map fst targets));
          exit 1)
  | _ ->
      Printf.eprintf "usage: %s [target]\n" Sys.argv.(0);
      exit 1
