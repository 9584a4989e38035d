(* The corpus test: every entry must parse, pass scoping, and verify to its
   expected verdict. Entries known to be slow at full width run with their
   recorded width override (the paper's own workaround, §6.1). The eight
   Fig. 8 bugs must each FAIL verification — this is Table 3's bottom line.
   Heavier entries run as `Slow (enabled by ALCOTEST_QUICK_TESTS=0 or -e). *)

let entry_case (e : Alive_suite.Entry.t) =
  let speed =
    (* Division/multiplication chains are slow; mark them `Slow. *)
    if e.widths <> None then `Slow else `Quick
  in
  Alcotest.test_case e.name speed (fun () ->
      let t = Alive_suite.Entry.parse e in
      (match Alive.Scoping.check t with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "scoping: %s" msg);
      let verdict = Alive.Refine.check ?widths:e.widths t in
      let valid = Alive.Refine.is_valid_verdict verdict in
      let expected = e.expected = Alive_suite.Entry.Expect_valid in
      if valid <> expected then
        Alcotest.failf "expected %s, got: %a"
          (if expected then "valid" else "invalid")
          Alive.Refine.pp_verdict verdict)

let counts =
  [
    Alcotest.test_case "eight Fig. 8 bugs in the corpus" `Quick (fun () ->
        (* The corpus also carries a few deliberately wrong memory rewrites
           as negative tests; Fig. 8's bugs are the PR-named ones. *)
        let bugs =
          List.filter
            (fun (e : Alive_suite.Entry.t) ->
              e.expected = Alive_suite.Entry.Expect_invalid
              && String.length e.name > 2
              && String.sub e.name 0 2 = "PR")
            Alive_suite.Registry.all
        in
        Alcotest.(check int) "count" 8 (List.length bugs));
    Alcotest.test_case "categories cover Table 3's translated files" `Quick
      (fun () ->
        List.iter
          (fun file ->
            Alcotest.(check bool)
              (file ^ " is non-empty") true
              (Alive_suite.Registry.by_file file <> []))
          Alive_suite.Registry.files);
  ]

let suite = ("suite", counts @ List.map entry_case Alive_suite.Registry.all)

(* Counterexample soundness: for every entry the checker refutes, re-derive
   the verification condition and confirm the model really does satisfy ψ
   while violating the failed check (source undef variables default to zero,
   which is exact here since no corpus bug involves source undef). *)
let counterexample_soundness =
  Alcotest.test_case "counterexamples actually refute" `Quick (fun () ->
      List.iter
        (fun (e : Alive_suite.Entry.t) ->
          if e.expected = Alive_suite.Entry.Expect_invalid then
            let t = Alive_suite.Entry.parse e in
            let r = Alive.Refine.run ?widths:e.widths t in
            match (r.verdict, r.cex_vc) with
            | Alive.Refine.Invalid cex, Some (_typing, vc) when cex.at <> "memory"
              -> (
                let module T = Alive_smt.Term in
                let module Model = Alive_smt.Model in
                let src_iv = List.assoc cex.at vc.src.defs in
                let tgt_iv = List.assoc cex.at vc.tgt.defs in
                let memory_facts =
                  match vc.memory with
                  | Some m -> m.alloca @ m.congruence ()
                  | None -> []
                in
                let psi =
                  T.and_
                    (vc.precondition :: src_iv.defined :: src_iv.poison_free
                   :: (vc.side_constraints @ memory_facts))
                in
                if not (Model.holds cex.model psi) then
                  Alcotest.failf "%s: model does not satisfy psi" e.name;
                let violated =
                  match cex.kind with
                  | Alive.Counterexample.Not_defined ->
                      not (Model.holds cex.model tgt_iv.defined)
                  | Alive.Counterexample.More_poison ->
                      not (Model.holds cex.model tgt_iv.poison_free)
                  | Alive.Counterexample.Value_mismatch ->
                      not
                        (Model.holds cex.model (T.eq src_iv.value tgt_iv.value))
                in
                if not violated then
                  Alcotest.failf "%s: model does not violate the failed check"
                    e.name)
            | Alive.Refine.Invalid _, _ -> () (* memory criterion: probe-based *)
            | v, _ ->
                Alcotest.failf "%s: expected invalid, got %a" e.name
                  Alive.Refine.pp_verdict v)
        Alive_suite.Registry.all)

let suite =
  let name, cases = suite in
  (name, cases @ [ counterexample_soundness ])
