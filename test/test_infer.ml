(* Tests for lib/infer: template lowering, end-to-end counterexample-guided
   inference, precondition comparison, and the corpus-wide
   vacuous-precondition property that keeps the lint allowlist honest. (The
   concrete/SMT agreement of the predicate language is test_constlang.ml's.) *)

open Alive.Ast
module Typing = Alive.Typing
module Scoping = Alive.Scoping
module Vcgen = Alive.Vcgen
module Refine = Alive.Refine
module Infer = Alive_infer.Infer
module Concrete = Alive_infer.Concrete
module Atoms = Alive_infer.Atoms
module Model = Alive_smt.Model
module T = Alive_smt.Term

let parse text =
  try Alive.Parser.parse_transform text
  with Alive.Parser.Error (msg, line) ->
    Alcotest.failf "parse (line %d): %s" line msg

let scoping t =
  match Scoping.check t with
  | Ok info -> info
  | Error e -> Alcotest.failf "scoping: %s" e

let typing ?widths t =
  match Typing.enumerate ?widths t with
  | Ok (env :: _) -> env
  | Ok [] -> Alcotest.fail "no feasible typing"
  | Error e -> Alcotest.failf "typing: %a" Typing.pp_error e

let pred_str p = Format.asprintf "%a" pp_pred p

(* ---- Template lowering ---- *)

let lower_exn ?(widths = [ 4 ]) t binds =
  let info = scoping t in
  let env = typing ~widths t in
  match Concrete.lower env ~binds info t with
  | Ok (src, tgt) -> (env, info, src, tgt)
  | Error e -> Alcotest.failf "lower: %s" e

let bv4 n = Bitvec.of_int ~width:4 n

let lowering_tests =
  [
    Alcotest.test_case "lowered shl-shl classifies by refinement" `Quick
      (fun () ->
        let t = parse "%a = shl %x, C1\n%r = shl %a, C2\n=>\n%r = shl %x, C1+C2\n" in
        let classify x c1 c2 =
          let binds = [ ("%x", bv4 x); ("C1", bv4 c1); ("C2", bv4 c2) ] in
          let _, _, src, tgt = lower_exn t binds in
          Concrete.classify ~src ~tgt [ bv4 x ]
        in
        (* In-range accumulation refines. *)
        Alcotest.(check bool) "1,1,1 positive" true (classify 1 1 1 = Concrete.Pos);
        (* Defined source, poison target: shift total >= width. *)
        Alcotest.(check bool) "1,2,3 negative" true (classify 1 2 3 = Concrete.Neg);
        (* Poison source says nothing about where the rewrite fires. *)
        Alcotest.(check bool) "1,7,1 skipped" true (classify 1 7 1 = Concrete.Skip));
    Alcotest.test_case "unused source instructions are pruned" `Quick
      (fun () ->
        (* The udiv is overwritten by the target, so it contributes nothing
           to the source's root chain — but it would be UB under C2 = 0, so
           pruning must keep it out of the executed body or every run with
           C2 = 0 aborts. *)
        let t =
          parse
            "%d = udiv %x, C2\n%r = add %x, C1\n=>\n%d = add %x, 0\n%r = add %x, C1\n"
        in
        let binds = [ ("%x", bv4 1); ("C1", bv4 1); ("C2", bv4 0) ] in
        let _, _, src, tgt = lower_exn t binds in
        Alcotest.(check int) "src body pruned to the root chain" 1
          (List.length src.Ir.body);
        Alcotest.(check bool) "runs and refines" true
          (Concrete.classify ~src ~tgt [ bv4 1 ] = Concrete.Pos));
    Alcotest.test_case "target shadowing the root is renamed" `Quick
      (fun () ->
        let t = parse "%r = add %x, C\n=>\n%r = sub %x, -C\n" in
        let binds = [ ("%x", bv4 3); ("C", bv4 5) ] in
        let _, _, src, tgt = lower_exn t binds in
        Alcotest.(check bool) "source keeps the original name" true
          (src.Ir.ret = Ir.Var "%r");
        Alcotest.(check bool) "target returns the renamed def" true
          (tgt.Ir.ret <> Ir.Var "%r");
        Alcotest.(check bool) "refines everywhere it was sampled" true
          (Concrete.classify ~src ~tgt [ bv4 3 ] = Concrete.Pos));
  ]

(* ---- End-to-end inference ---- *)

let budget = Alive_smt.Solve.budget ~timeout:10.0 ()

let infer_tests =
  [
    Alcotest.test_case "unconditionally valid infers true" `Quick (fun () ->
        let t = parse "%r = add %x, 0\n=>\n%r = %x\n" in
        let o = Infer.infer ~widths:[ 4 ] ~budget t in
        Alcotest.(check bool) "inferred" true (o.inferred = Some Ptrue));
    Alcotest.test_case "or-identity needs C == 0" `Quick (fun () ->
        let t = parse "%r = or %x, C\n=>\n%r = %x\n" in
        let o = Infer.infer ~widths:[ 4 ] ~budget t in
        match o.inferred with
        | None -> Alcotest.failf "no precondition inferred: %s" o.note
        | Some p ->
            (* Whatever shape the learner found, it must validate and be
               equivalent to the reference precondition. *)
            Alcotest.(check bool) "validates" true
              (Refine.is_valid_verdict
                 (Refine.check ~widths:[ 4 ] ~budget { t with pre = p }));
            Alcotest.(check string) "equivalent to C == 0" "equal"
              (Infer.cmp_name
                 (Infer.compare_preds ~widths:[ 4 ] ~budget t
                    (Pcmp (Peq, Cabs "C", Cint 0L))
                    p)));
    Alcotest.test_case "existing precondition is ignored" `Quick (fun () ->
        (* Same transform, deliberately wrong hand-written pre: inference
           starts from the bare check, so the result is unchanged. *)
        let t = parse "Pre: C == 1\n%r = or %x, C\n=>\n%r = %x\n" in
        let o = Infer.infer ~widths:[ 4 ] ~budget t in
        match o.inferred with
        | None -> Alcotest.failf "no precondition inferred: %s" o.note
        | Some p ->
            Alcotest.(check string) "still the C == 0 region" "equal"
              (Infer.cmp_name
                 (Infer.compare_preds ~widths:[ 4 ] ~budget t
                    (Pcmp (Peq, Cabs "C", Cint 0L))
                    p)));
    Alcotest.test_case "memory transforms fail with a note" `Quick (fun () ->
        let t =
          parse "%x = load %p\n%r = add %x, 0\n=>\n%r = load %p\n"
        in
        let o = Infer.infer ~widths:[ 4 ] ~budget t in
        Alcotest.(check bool) "no precondition" true (o.inferred = None);
        Alcotest.(check bool) "note explains" true (o.note <> ""));
  ]

(* ---- Precondition comparison ---- *)

let cmp_tests =
  [
    Alcotest.test_case "compare_preds orders the pow2 family" `Quick
      (fun () ->
        let t = parse "%r = mul %x, C\n=>\n%r = shl %x, log2(C)\n" in
        let pow2 = Pcall ("isPowerOf2", [ Cabs "C" ]) in
        let pow2z = Pcall ("isPowerOf2OrZero", [ Cabs "C" ]) in
        let check name want hand inferred =
          Alcotest.(check string)
            name want
            (Infer.cmp_name (Infer.compare_preds ~widths:[ 4 ] ~budget t hand inferred))
        in
        check "reflexive" "equal" pow2 pow2;
        check "pow2 => pow2-or-zero" "weaker" pow2 pow2z;
        check "and conversely" "stronger" pow2z pow2;
        check "disjoint constants" "incomparable"
          (Pcmp (Peq, Cabs "C", Cint 0L))
          (Pcmp (Peq, Cabs "C", Cint 1L)));
  ]

(* ---- The corpus-wide vacuous-precondition property ---- *)

(* Dropping the precondition of an expected-valid corpus entry must flip
   the verdict to invalid — unless the precondition is vacuous, in which
   case the entry must be on the lint allowlist
   (Alive_lint.Rules.vacuous_preconditions), and vice versa. Undecided
   checks are skipped rather than failed: the property is about definite
   verdicts. *)
let vacuous_test =
  Alcotest.test_case "corpus preconditions are live or allowlisted" `Slow
    (fun () ->
      let eligible =
        List.filter
          (fun (e : Alive_suite.Entry.t) ->
            e.expected = Alive_suite.Entry.Expect_valid
            &&
            let t = Alive_suite.Entry.parse e in
            t.pre <> Ptrue && not (Alive.Ast.has_memory_ops t))
          Alive_suite.Registry.all
      in
      Alcotest.(check bool) "eligible entries exist" true
        (List.length eligible >= 10);
      List.iter
        (fun (e : Alive_suite.Entry.t) ->
          let t = Alive_suite.Entry.parse e in
          let bare = { t with pre = Ptrue } in
          let allowlisted =
            List.mem e.name Alive_lint.Rules.vacuous_preconditions
          in
          match Refine.check ?widths:e.widths ~budget bare with
          | v when Refine.is_valid_verdict v ->
              if not allowlisted then
                Alcotest.failf
                  "%s: dropping the precondition keeps the entry valid, but \
                   it is not on the vacuous allowlist"
                  e.name
          | Refine.Invalid _ ->
              if allowlisted then
                Alcotest.failf
                  "%s: allowlisted as vacuous, but dropping the \
                   precondition flips the verdict to invalid"
                  e.name
          | _ -> ())
        eligible)

(* ---- Corpus re-derivation (the acceptance floor) ---- *)

let rederivation_test =
  Alcotest.test_case "inference re-derives corpus preconditions" `Slow
    (fun () ->
      let eligible =
        List.filter
          (fun (e : Alive_suite.Entry.t) ->
            e.expected = Alive_suite.Entry.Expect_valid
            &&
            let t = Alive_suite.Entry.parse e in
            t.pre <> Ptrue && not (Alive.Ast.has_memory_ops t))
          Alive_suite.Registry.all
      in
      let ok =
        List.filter
          (fun (e : Alive_suite.Entry.t) ->
            let t = Alive_suite.Entry.parse e in
            let o = Infer.infer ?widths:e.widths ~budget t in
            match o.inferred with
            | None -> false
            | Some p -> (
                match
                  Infer.compare_preds ?widths:e.widths ~budget t t.pre p
                with
                | Infer.Equal | Infer.Weaker -> true
                | _ -> false))
          eligible
      in
      if List.length ok < 10 then
        Alcotest.failf
          "only %d/%d corpus entries re-derived an equal-or-weaker \
           precondition (need >= 10)"
          (List.length ok) (List.length eligible))

(* ---- Phase histograms ---- *)

let phase_count_test =
  Alcotest.test_case "each inference phase is observed once" `Quick
    (fun () ->
      let module Metrics = Alive_trace.Metrics in
      let count phase =
        List.fold_left
          (fun n (h : Metrics.hist_snapshot) ->
            if h.name = phase then h.count else n)
          0 (Metrics.snapshot ()).histograms
      in
      let validate0 = count "infer.validate" and sample0 = count "infer.sample" in
      let was_on = Metrics.phase_timing_on () in
      Metrics.set_phase_timing true;
      let o =
        Fun.protect
          ~finally:(fun () -> Metrics.set_phase_timing was_on)
          (fun () ->
            Infer.infer ~widths:[ 4 ] ~budget
              (parse "Name: udiv-shift\n%r = udiv %x, C\n=>\n%r = lshr %x, log2(C)\n"))
      in
      Alcotest.(check bool) "inferred" true (o.inferred <> None);
      Alcotest.(check int) "infer.validate" o.validations
        (count "infer.validate" - validate0);
      Alcotest.(check int) "infer.sample" 1 (count "infer.sample" - sample0))

let suite =
  ( "infer",
    lowering_tests @ infer_tests @ cmp_tests
    @ [ vacuous_test; rederivation_test; phase_count_test ] )
