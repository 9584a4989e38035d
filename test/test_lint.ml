(* Tests for the static lint subsystem: the exhaustive i4 differential check
   of the known-bits transfer functions against the interpreter, one
   positive + one negative case per lint rule id, location threading, and a
   golden JSON report. *)

module D = Alive.Diagnostics
module Lint = Alive_lint.Driver
module Rules = Alive_lint.Rules

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- Differential: known-bits transfer vs the interpreter, exhaustive i4.

   For every abstraction pair (known mask, known value) and every binop, the
   transfer result must be consistent with every defined concrete execution
   of the instruction over the concretizations. 3^4 abstractions per
   operand; UB executions (division by zero, over-shifts) are vacuous. ---- *)

let all_binops =
  [
    Ir.Add; Ir.Sub; Ir.Mul; Ir.Udiv; Ir.Sdiv; Ir.Urem; Ir.Srem;
    Ir.Shl; Ir.Lshr; Ir.Ashr; Ir.And; Ir.Or; Ir.Xor;
  ]

let binop_str op =
  Ir.binop_name op

let differential_tests =
  [
    Alcotest.test_case "transfer_binop sound on exhaustive i4" `Quick
      (fun () ->
        let w = 4 in
        let bv v = Bitvec.of_int ~width:w v in
        List.iter
          (fun op ->
            let f =
              {
                Ir.fname = "t";
                params = [ ("x", w); ("y", w) ];
                body = [ { Ir.name = "r"; width = w;
                           inst = Ir.Binop (op, [], Ir.Var "x", Ir.Var "y") } ];
                ret = Ir.Var "r";
              }
            in
            (* concrete results; None = UB or poison (vacuous) *)
            let table = Array.make 256 None in
            for x = 0 to 15 do
              for y = 0 to 15 do
                match Interp.run f [ bv x; bv y ] with
                | Ok (Interp.Ret (Interp.Val c)) -> table.((x * 16) + y) <- Some c
                | Ok _ | Error _ -> ()
              done
            done;
            (* abstractions: v ⊆ m *)
            let abstractions = ref [] in
            for m = 0 to 15 do
              for v = 0 to 15 do
                if v land lnot m land 15 = 0 then
                  abstractions :=
                    ( {
                        Analysis.zeros = bv (m land lnot v land 15);
                        ones = bv v;
                      },
                      m, v )
                    :: !abstractions
              done
            done;
            let concretizations m v =
              List.filter (fun x -> x land m = v) (List.init 16 Fun.id)
            in
            List.iter
              (fun (ka, ma, va) ->
                List.iter
                  (fun (kb, mb, vb) ->
                    let kr = Analysis.transfer_binop op w ka kb in
                    check_bool
                      (Printf.sprintf "%s: zeros/ones disjoint" (binop_str op))
                      true
                      (Bitvec.is_zero
                         (Bitvec.logand kr.Analysis.zeros kr.Analysis.ones));
                    List.iter
                      (fun x ->
                        List.iter
                          (fun y ->
                            match table.((x * 16) + y) with
                            | None -> ()
                            | Some c ->
                                let bad =
                                  (not
                                     (Bitvec.is_zero
                                        (Bitvec.logand c kr.Analysis.zeros)))
                                  || not
                                       (Bitvec.is_zero
                                          (Bitvec.logand (Bitvec.lognot c)
                                             kr.Analysis.ones))
                                in
                                if bad then
                                  Alcotest.failf
                                    "%s unsound: a(m=%d,v=%d) b(m=%d,v=%d) \
                                     x=%d y=%d result=%s zeros=%s ones=%s"
                                    (binop_str op) ma va mb vb x y
                                    (Bitvec.to_string_hex c)
                                    (Bitvec.to_string_hex kr.Analysis.zeros)
                                    (Bitvec.to_string_hex kr.Analysis.ones))
                          (concretizations mb vb))
                      (concretizations ma va))
                  !abstractions)
              !abstractions)
          all_binops);
    Alcotest.test_case "add/sub transfer is not vacuous" `Quick (fun () ->
        (* 0b??00 + 0b??00 keeps the low two bits zero *)
        let k =
          {
            Analysis.zeros = Bitvec.of_int ~width:4 3;
            ones = Bitvec.zero 4;
          }
        in
        let r = Analysis.transfer_binop Ir.Add 4 k k in
        check_bool "low bits known zero" true
          (Bitvec.to_int (Bitvec.logand r.Analysis.zeros (Bitvec.of_int ~width:4 3)) = 3);
        (* x - x is not forced, but 0b?000 - 0b?000 keeps low three zero *)
        let k8 =
          {
            Analysis.zeros = Bitvec.of_int ~width:4 7;
            ones = Bitvec.zero 4;
          }
        in
        let r = Analysis.transfer_binop Ir.Sub 4 k8 k8 in
        check_int "low bits of sub known zero" 7
          (Bitvec.to_int (Bitvec.logand r.Analysis.zeros (Bitvec.of_int ~width:4 7))));
    Alcotest.test_case "ashr transfer replicates known sign" `Quick (fun () ->
        let k =
          {
            (* 1?10: sign known one *)
            Analysis.zeros = Bitvec.of_int ~width:4 0b0001;
            ones = Bitvec.of_int ~width:4 0b1010;
          }
        in
        let amount = Analysis.of_const (Bitvec.of_int ~width:4 2) in
        let r = Analysis.transfer_binop Ir.Ashr 4 k amount in
        (* 1?10 ashr 2 = 11 1? : top two bits known one *)
        check_bool "sign bits known one" true
          (Bitvec.bit r.Analysis.ones 3 && Bitvec.bit r.Analysis.ones 2));
  ]

(* ---- Per-rule unit tests ---- *)

let parse text = Alive.Parser.parse_file text

let lint_text text =
  (Lint.lint_transforms ~file:"test.opt" (parse text)).Lint.findings

let rules_of findings = List.map (fun f -> f.Lint.diag.D.rule) findings

let has rule findings = List.mem rule (rules_of findings)

let expect_rule name text rule =
  Alcotest.test_case name `Quick (fun () ->
      let fs = lint_text text in
      check_bool
        (Printf.sprintf "expected %s in [%s]" rule
           (String.concat "; " (rules_of fs)))
        true (has rule fs))

let expect_clean name text rule =
  Alcotest.test_case name `Quick (fun () ->
      check_bool (rule ^ " must not fire") false (has rule (lint_text text)))

let rule_tests =
  [
    (* dead-precondition *)
    expect_rule "implied precondition flagged"
      "Pre: MaskedValueIsZero(%a, -4)\n%a = and %x, 3\n%r = add %a, C\n=>\n%r = or %a, C\n"
      "dead-precondition.implied";
    expect_clean "meaningful precondition kept"
      "Pre: C != 0\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "dead-precondition.implied";
    expect_rule "contradictory precondition flagged"
      "Pre: %a u> 4\n%a = and %x, 3\n%r = xor %a, 2\n=>\n%r = and %x, 1\n"
      "dead-precondition.contradiction";
    expect_clean "satisfiable range precondition kept"
      "Pre: %a u> 2\n%a = and %x, 3\n%r = xor %a, 2\n=>\n%r = and %x, 1\n"
      "dead-precondition.contradiction";
    expect_rule "literal-only clause flagged"
      "Pre: 1 == 1 && C != 0\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "dead-precondition.constant-fold";
    expect_clean "clause over constants not constant-folded"
      "Pre: C == 1\n%r = mul %x, C\n=>\n%r = %x\n"
      "dead-precondition.constant-fold";
    expect_rule "repeated clause flagged"
      "Pre: C != 0 && C != 0\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "dead-precondition.duplicate";
    expect_clean "distinct clauses kept"
      "Pre: C != 0 && C != 1\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "dead-precondition.duplicate";
    (* width() must stay symbolic: this clause is true at i4 but not i8 *)
    expect_clean "width() clause stays unknown"
      "Pre: width(%x) == 4\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "dead-precondition.contradiction";
    (* range-domain attribution: urem by 3 bounds %a to [0,2], which known
       bits cannot express (3 is not a power of two) *)
    expect_rule "range-implied precondition attributed to ranges"
      "Pre: %a u< 3\n%a = urem %x, 3\n%r = add %a, C\n=>\n%r = or %a, C\n"
      "dead-precondition.range-implied";
    expect_clean "range-implied does not fire when known bits suffice"
      "Pre: MaskedValueIsZero(%a, -4)\n%a = and %x, 3\n%r = add %a, C\n=>\n%r = or %a, C\n"
      "dead-precondition.range-implied";
    expect_rule "range-contradiction attributed to ranges"
      "Pre: %a u> 4\n%a = urem %x, 3\n%r = add %a, 1\n=>\n%r = or %a, 1\n"
      "dead-precondition.range-contradiction";
    expect_clean "satisfiable range clause not a range-contradiction"
      "Pre: %a u> 1\n%a = urem %x, 3\n%r = add %a, 1\n=>\n%r = or %a, 1\n"
      "dead-precondition.range-contradiction";
    (* static-poison *)
    expect_rule "target division by zero flagged"
      "%r = or %x, %x\n=>\n%r = udiv %x, 0\n" "static-poison.target";
    (* -1 is all-ones, which is ≥ the width at every width *)
    expect_rule "target shift past width flagged"
      "%r = or %x, %x\n=>\n%r = lshr %x, -1\n" "static-poison.target";
    expect_clean "defined target division accepted"
      "%r = or %x, %x\n=>\n%r = udiv %x, 2\n" "static-poison.target";
    (* cost-regression *)
    expect_rule "slower target flagged (latency)"
      "%r = add %x, %x\n=>\n%m = mul %x, 3\n%r = sub %m, %x\n"
      "cost-regression.latency";
    expect_rule "bigger target flagged (count)"
      "%r = add %x, %x\n=>\n%m = mul %x, 3\n%r = sub %m, %x\n"
      "cost-regression.count";
    expect_clean "cheaper target accepted"
      "%r = mul %x, 2\n=>\n%r = shl %x, 1\n" "cost-regression.latency";
    expect_clean "copies are free"
      "%r = or %x, %x\n=>\n%r = %x\n" "cost-regression.count";
    (* unused-var *)
    expect_rule "unbound target constant is an error"
      "%r = add %x, C\n=>\n%r = sub %x, C2\n" "unused-var.unbound-const";
    expect_clean "derived target constant accepted"
      "%r = add %x, C\n=>\n%r = sub %x, -C\n" "unused-var.unbound-const";
    expect_rule "precondition-only constant flagged"
      "Pre: C2 != 0\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "unused-var.pre-only-const";
    expect_clean "precondition over bound constants accepted"
      "Pre: C != 0\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "unused-var.pre-only-const";
    expect_rule "bound-but-unused constant noted"
      "%a = or %x, C\n%r = and %a, %x\n=>\n%r = %x\n"
      "unused-var.unused-const";
    expect_clean "constant used in target not flagged"
      "%r = add %x, C\n=>\n%r = sub %x, -C\n" "unused-var.unused-const";
    (* well-formed *)
    expect_rule "overflowing literal flagged"
      "%r = add i4 %x, 200\n=>\n%r = %x\n" "well-formed.literal-width";
    expect_clean "fitting literal accepted"
      "%r = add i8 %x, 200\n=>\n%r = %x\n" "well-formed.literal-width";
    expect_rule "scoping violation surfaces as lint"
      "%r = add %x, %y\n=>\n%q = sub %x, %y\n" "well-formed.scoping";
    expect_rule "duplicate names flagged"
      "Name: twin\n%r = add %x, 1\n=>\n%r = sub %x, -1\n\nName: twin\n%r = or %x, %x\n=>\n%r = %x\n"
      "well-formed.duplicate-name";
    expect_clean "distinct names accepted"
      "Name: one\n%r = add %x, 1\n=>\n%r = sub %x, -1\n\nName: two\n%r = or %x, %x\n=>\n%r = %x\n"
      "well-formed.duplicate-name";
    (* shadowing *)
    expect_rule "general-then-specific shadows"
      "Name: general\n%r = add %x, C\n=>\n%r = sub %x, -C\n\nName: specific\n%r = add %x, 1\n=>\n%r = sub %x, -1\n"
      "shadowing.subsumed";
    expect_clean "specific-then-general does not shadow"
      "Name: specific\n%r = add %x, 1\n=>\n%r = sub %x, -1\n\nName: general\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "shadowing.subsumed";
    expect_clean "stricter precondition does not shadow"
      "Name: general\nPre: isPowerOf2(C)\n%r = add %x, C\n=>\n%r = sub %x, -C\n\nName: specific\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
      "shadowing.subsumed";
    (* rewrite-cycle *)
    expect_rule "two-rule rewrite cycle flagged"
      "Name: a\n%r = or %x, %x\n=>\n%r = and %x, %x\n\nName: b\n%r = and %x, %x\n=>\n%r = or %x, %x\n"
      "rewrite-cycle.scc";
    expect_rule "self-cycle flagged"
      "Name: flip\n%r = srem %x, C\n=>\n%r = srem %x, -C\n"
      "rewrite-cycle.scc";
    expect_clean "one-direction rewrite accepted"
      "Name: a\n%r = or %x, %x\n=>\n%r = %x\n" "rewrite-cycle.scc";
  ]

(* ---- Severities, locations, parse diagnostics ---- *)

let misc_tests =
  [
    Alcotest.test_case "severities per rule" `Quick (fun () ->
        let fs =
          lint_text
            "Pre: %a u> 4\n%a = and %x, 3\n%r = xor %a, 2\n=>\n%r = and %x, C9\n"
        in
        let sev rule =
          List.find_map
            (fun f ->
              if f.Lint.diag.D.rule = rule then Some f.Lint.diag.D.severity
              else None)
            fs
        in
        check_bool "contradiction is error" true
          (sev "dead-precondition.contradiction" = Some D.Error);
        check_bool "unbound const is error" true
          (sev "unused-var.unbound-const" = Some D.Error));
    Alcotest.test_case "findings carry file:line spans" `Quick (fun () ->
        let fs =
          lint_text
            "Name: located\nPre: 1 == 1\n%r = add %x, C\n=>\n%r = sub %x, -C\n"
        in
        let f =
          List.find
            (fun f -> f.Lint.diag.D.rule = "dead-precondition.constant-fold")
            fs
        in
        check_string "file" "test.opt" f.Lint.diag.D.where.D.file;
        check_int "line" 2 f.Lint.diag.D.where.D.line);
    Alcotest.test_case "parse errors become diagnostics" `Quick (fun () ->
        match Alive.Parser.parse_file_diag ~file:"bad.opt" "%r = add %x,\n" with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error d ->
            check_string "rule family" "parse" (D.rule_family d);
            check_string "file" "bad.opt" d.D.where.D.file;
            check_bool "line recorded" true (d.D.where.D.line >= 1));
    Alcotest.test_case "statement locations recorded by parser" `Quick
      (fun () ->
        match parse "Name: locs\nPre: C != 0\n%a = and %x, C\n%r = or %a, 1\n=>\n%r = or %x, 1\n" with
        | [ t ] ->
            let locs = t.Alive.Ast.locs in
            check_int "header" 1 locs.Alive.Ast.header_line;
            check_int "pre" 2 (Alive.Ast.pre_line locs);
            check_int "src0" 3 (Alive.Ast.src_line locs 0);
            check_int "src1" 4 (Alive.Ast.src_line locs 1);
            check_int "tgt0" 6 (Alive.Ast.tgt_line locs 0)
        | _ -> Alcotest.fail "expected one transform");
    Alcotest.test_case "corpus lint is clean and fast" `Quick (fun () ->
        let report = Lint.lint_corpus ~jobs:1 Alive_suite.Registry.all in
        check_int "no gating errors" 0 (List.length (Lint.gating report));
        check_bool
          (Printf.sprintf "SMT-free lint under a second (%.3fs)" report.wall)
          true (report.wall < 1.0));
    Alcotest.test_case "registry files derived from entries" `Quick (fun () ->
        check_bool "every entry's category is listed" true
          (List.for_all
             (fun (e : Alive_suite.Entry.t) ->
               List.mem e.file Alive_suite.Registry.files)
             Alive_suite.Registry.all));
    Alcotest.test_case "expected-invalid entries are allowlisted" `Quick
      (fun () ->
        let bugs =
          List.filter
            (fun (e : Alive_suite.Entry.t) ->
              e.expected = Alive_suite.Entry.Expect_invalid)
            Alive_suite.Registry.all
        in
        check_bool "bugs corpus present" true (bugs <> []);
        let report = Lint.lint_corpus ~jobs:1 bugs in
        check_bool "their findings never gate" true
          (List.for_all (fun f -> f.Lint.allowlisted) report.Lint.findings));
    Alcotest.test_case "saturated pass reports the cycle" `Quick (fun () ->
        let rule text =
          match
            Alive_opt.Matcher.rule_of_transform
              (List.hd (parse text))
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let a = rule "Name: a\n%r = or %x, %x\n=>\n%r = and %x, %x\n" in
        let b = rule "Name: b\n%r = and %x, %x\n=>\n%r = or %x, %x\n" in
        let f =
          {
            Ir.fname = "t";
            params = [ ("x", 8) ];
            body =
              [ { Ir.name = "r"; width = 8;
                  inst = Ir.Binop (Ir.Or, [], Ir.Var "x", Ir.Var "x") } ];
            ret = Ir.Var "r";
          }
        in
        let o =
          Alive_opt.Pass.run_guarded ~rules:[ a; b ] ~max_rewrites:50 f
        in
        check_bool "budget exhausted" true o.Alive_opt.Pass.saturated;
        let o' = Alive_opt.Pass.run_guarded ~rules:[ a ] ~max_rewrites:50 f in
        check_bool "single direction terminates" false
          o'.Alive_opt.Pass.saturated);
  ]

(* ---- Golden JSON ---- *)

let golden_tests =
  [
    Alcotest.test_case "JSON report matches golden" `Quick (fun () ->
        let report =
          Lint.lint_transforms ~file:"golden.opt"
            (parse "Name: g\n%r = add %x, C\n=>\n%r = sub %x, C2\n")
        in
        let report = { report with Lint.wall = 0.0 } in
        let expected =
          "{\"version\":1,\"entries\":1,\"findings\":[{\"rule\":\"unused-var.unbound-const\",\"severity\":\"error\",\"file\":\"golden.opt\",\"line\":4,\"transform\":\"g\",\"message\":\"target uses abstract constant C2, which the source pattern never binds\",\"hint\":\"constants are bound by matching the source pattern; a constant that only appears in the target can never be instantiated\",\"allowlisted\":false},{\"rule\":\"unused-var.unused-const\",\"severity\":\"info\",\"file\":\"golden.opt\",\"line\":2,\"transform\":\"g\",\"message\":\"abstract constant C is bound by the source but used neither in the precondition nor in the target\",\"hint\":\"the constant still constrains the operand to be a constant; use a plain %var if any operand should match\",\"allowlisted\":false}],\"summary\":{\"errors\":1,\"warnings\":0,\"infos\":1,\"allowlisted\":0,\"gating_errors\":1},\"wall_s\":0.0}"
        in
        check_string "golden"
          expected
          (Alive_trace.Json.to_string (Lint.to_json report)));
  ]

(* ---- Rewrite cycles: the corpus's cyclic SCCs, pinned ---- *)

let cycle_tests =
  [
    Alcotest.test_case "corpus rewrite cycles are pinned" `Quick (fun () ->
        let report = Lint.lint_corpus ~jobs:1 Alive_suite.Registry.all in
        let cycles =
          List.filter_map
            (fun (f : Lint.finding) ->
              if f.diag.D.rule = "rewrite-cycle.scc" then
                Some (f.transform ^ ": " ^ f.diag.D.message)
              else None)
            report.findings
        in
        Alcotest.(check (list string))
          "rewrite-cycle.scc findings"
          [
            "AndOrXor:sext-and-is-select: rewrite cycle among: \
             AndOrXor:sext-and-is-select -> Select:and-arms -> \
             AndOrXor:sext-and-is-select";
            "AndOrXor:sext-or-is-select: rewrite cycle among: \
             AndOrXor:sext-or-is-select -> Select:or-arms -> \
             AndOrXor:sext-or-is-select";
            "MulDivRem:srem-neg-const: rewrite cycle among: \
             MulDivRem:srem-neg-const -> MulDivRem:srem-neg-const";
          ]
          cycles);
  ]

let suite =
  ( "lint",
    differential_tests @ rule_tests @ misc_tests @ golden_tests @ cycle_tests
  )
