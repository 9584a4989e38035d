(* Differential tests for the canonical verdict cache, which must be
   invisible in results — identical verdicts (including unknown reasons)
   and identical counterexample models — golden verdicts for the CEGAR
   loop, and the DIMACS dump. Each test saves and restores the switches it
   flips so the rest of the suite runs under the default configuration. *)

module Solve = Alive_smt.Solve
module Vc_cache = Alive_smt.Vc_cache
module Refine = Alive.Refine
module Entry = Alive_suite.Entry

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let parse = Alive.Parser.parse_transform

let with_cache cache f =
  let cache_was = Vc_cache.enabled () in
  Vc_cache.set_enabled cache;
  Vc_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Vc_cache.set_enabled cache_was;
      Vc_cache.clear ())
    f

(* Everything that must match across configurations, rendered: the verdict
   constructor, the failing instruction, the unknown reason, and for
   counterexamples the full model. *)
let fingerprint = function
  | Refine.Invalid cex ->
      Format.asprintf "%a; model: %a" Refine.pp_verdict (Refine.Invalid cex)
        Alive_smt.Model.pp cex.model
  | v -> Format.asprintf "%a" Refine.pp_verdict v

let run_slice ?budget entries =
  List.map
    (fun (e : Entry.t) ->
      let v = Refine.check ?widths:e.widths ?budget (Entry.parse e) in
      (e.name, fingerprint v))
    entries

let check_parity base off =
  List.iter2
    (fun (name, f_on) (name', f_off) ->
      check_string "same entry order" name name';
      check_string name f_on f_off)
    base off

(* The two parity cases keep the names they had when incremental CEGAR
   was a second switch, so their ids stay stable; the cache is the only
   switch left. *)
let differential_tests =
  [
    Alcotest.test_case "cache+incremental on/off: verdict parity" `Quick
      (fun () ->
        (* A full InstCombine category, ≥ 40 entries, solved twice: cache
           on vs off. Fingerprints — verdict, failing instruction,
           counterexample model — must be identical. *)
        let slice =
          List.filter
            (fun (e : Entry.t) -> String.equal e.file "AddSub")
            Alive_suite.Registry.all
        in
        check_bool "slice has at least 40 entries" true
          (List.length slice >= 40);
        let on = with_cache true (fun () -> run_slice slice) in
        let off = with_cache false (fun () -> run_slice slice) in
        check_parity on off);
    Alcotest.test_case "cache+incremental on/off: unknown reasons agree"
      `Quick (fun () ->
        (* Under a tight per-query conflict budget some entries go Unknown;
           the reason (conflict limit, at which instruction) must not depend
           on the cache. Unknown verdicts are never cached, so both legs
           solve them for real. *)
        let slice =
          List.filter
            (fun (e : Entry.t) -> String.equal e.file "MulDivRem")
            Alive_suite.Registry.all
        in
        let budget = Solve.budget ~conflict_limit:20 () in
        let on = with_cache true (fun () -> run_slice ~budget slice) in
        let off = with_cache false (fun () -> run_slice ~budget slice) in
        check_parity on off;
        let is_unknown (_, f) =
          Astring.String.is_infix ~affix:"unknown" (String.lowercase_ascii f)
        in
        check_bool "budget produced at least one unknown verdict" true
          (List.exists is_unknown on));
  ]

(* The undef examples from the paper exercise the CEGAR exists-forall
   loop. Their verdicts, and the one counterexample's model, are golden
   values: a change to the loop must keep them. Cache off so every query
   is actually solved. *)
let cegar_tests =
  [
    Alcotest.test_case "undef CEGAR examples keep their golden verdicts"
      `Quick (fun () ->
        let golden =
          [
            ("%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3\n",
             "valid (1 typings)");
            ("%r = select undef, i8 0, 1\n=>\n%r = or 1, undef\n",
             "INVALID: Mismatch in values at %r; model: %undef.tgt.0 = 0x80 \
              (128, -128)");
            ("%r = xor i8 undef, undef\n=>\n%r = 7\n", "valid (1 typings)");
            ("%r = or i8 undef, %x\n=>\n%r = -1\n", "valid (1 typings)");
          ]
        in
        List.iter
          (fun (text, expected) ->
            let r = with_cache false (fun () -> Refine.run (parse text)) in
            let got =
              match r.verdict with
              | Refine.Invalid cex ->
                  Format.asprintf "%a; model: %s" Refine.pp_verdict r.verdict
                    (String.concat ", "
                       (List.map
                          (fun (n, v) ->
                            Format.asprintf "%s = %a" n
                              Alive_smt.Term.pp_value v)
                          (Alive_smt.Model.bindings cex.model)))
              | v -> Format.asprintf "%a" Refine.pp_verdict v
            in
            check_string text expected got;
            check_bool (text ^ " ran the CEGAR loop") true
              (r.stats.Refine.telemetry.Solve.cegar_iterations > 0))
          golden);
  ]

let dump_tests =
  [
    Alcotest.test_case "dump-cnf writes DIMACS files" `Quick (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "alive-dump-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Solve.set_dump_dir (Some dir);
        (* The tier-0 static prover discharges this transform without any SAT
           query; disable it so the solver actually runs and dumps CNF. *)
        Alive_absint.Prover.set_enabled false;
        Fun.protect
          ~finally:(fun () ->
            Alive_absint.Prover.set_enabled true;
            Solve.set_dump_dir None)
          (fun () ->
            ignore
              (with_cache false (fun () ->
                   Refine.check (parse "%r = add %x, %x\n=>\n%r = shl %x, 1\n"))));
        let dumped =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".cnf")
        in
        check_bool "at least one .cnf dumped" true (dumped <> []);
        List.iter
          (fun f ->
            let path = Filename.concat dir f in
            let lines = In_channel.with_open_text path In_channel.input_lines in
            check_bool (f ^ " has a comment header") true
              (match lines with l :: _ -> String.length l > 0 && l.[0] = 'c' | [] -> false);
            check_bool (f ^ " has a DIMACS problem line") true
              (List.exists
                 (fun l -> Astring.String.is_prefix ~affix:"p cnf " l)
                 lines);
            Sys.remove path)
          dumped;
        Unix.rmdir dir);
  ]

let suite =
  ("differential", differential_tests @ cegar_tests @ dump_tests)
