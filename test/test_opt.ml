(* Tests for the optimizer: rule compilation, matching/rewriting, the pass
   driver with DCE, the workload generator, and the key end-to-end property:
   optimized functions refine the originals on random inputs. *)

let bv w v = Bitvec.of_int ~width:w v

let rule text =
  match Alive_opt.Matcher.rule_of_transform (Alive.Parser.parse_transform text) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("rule rejected: " ^ e)

let func ?(params = [ ("x", 8); ("y", 8) ]) body ret =
  { Ir.fname = "t"; params; body; ret }

let def name width inst = { Ir.name; width; inst }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let valid_rules = Alive_opt.Matcher.corpus_rules ()

let matcher_tests =
  [
    Alcotest.test_case "matches a simple pattern" `Quick (fun () ->
        let r = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let f =
          func
            [ def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 0))) ]
            (Ir.Var "r")
        in
        check_bool "matches" true (Alive_opt.Matcher.match_at r f "r" <> None));
    Alcotest.test_case "no match on wrong constant" `Quick (fun () ->
        let r = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let f =
          func
            [ def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 1))) ]
            (Ir.Var "r")
        in
        check_bool "no match" true (Alive_opt.Matcher.match_at r f "r" = None));
    Alcotest.test_case "attribute requirements respected" `Quick (fun () ->
        let r = rule "%r = add nsw %a, %b\n=>\n%r = add nsw %b, %a\n" in
        let without =
          func
            [ def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "r")
        in
        let with_nsw =
          func
            [ def "r" 8 (Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "r")
        in
        check_bool "plain add rejected" true
          (Alive_opt.Matcher.match_at r without "r" = None);
        check_bool "nsw add matched" true
          (Alive_opt.Matcher.match_at r with_nsw "r" <> None));
    Alcotest.test_case "repeated variables must coincide" `Quick (fun () ->
        let r = rule "%r = sub %a, %a\n=>\n%r = 0\n" in
        let same =
          func [ def "r" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "x")) ] (Ir.Var "r")
        in
        let diff =
          func [ def "r" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "y")) ] (Ir.Var "r")
        in
        check_bool "same matches" true (Alive_opt.Matcher.match_at r same "r" <> None);
        check_bool "different rejected" true
          (Alive_opt.Matcher.match_at r diff "r" = None));
    Alcotest.test_case "multi-instruction DAG match" `Quick (fun () ->
        (* The paper's intro pattern against concrete IR. *)
        let r = rule "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x\n" in
        let f =
          func
            [
              def "n" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "x", Ir.Const (Bitvec.all_ones 8)));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "n", Ir.Const (bv 8 5)));
            ]
            (Ir.Var "r")
        in
        match Alive_opt.Matcher.match_at r f "r" with
        | None -> Alcotest.fail "should match"
        | Some m -> (
            match Alive_opt.Matcher.rewrite r f m with
            | None -> Alcotest.fail "rewrite failed"
            | Some f' -> (
                check_bool "valid after rewrite" true (Ir.validate f' = Ok ());
                (* Root must now be sub 4, %x. *)
                match Ir.def_of f' "r" with
                | Some { Ir.inst = Ir.Binop (Ir.Sub, [], Ir.Const c, Ir.Var "x"); _ } ->
                    check_bool "constant folded to C-1" true
                      (Bitvec.equal c (bv 8 4))
                | _ -> Alcotest.fail "unexpected rewritten root")));
    Alcotest.test_case "precondition gates the rewrite" `Quick (fun () ->
        let r =
          rule "Pre: isPowerOf2(C1)\n%r = mul %a, C1\n=>\n%r = shl %a, log2(C1)\n"
        in
        let pow2 =
          func [ def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Const (bv 8 8))) ] (Ir.Var "r")
        in
        let not_pow2 =
          func [ def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Const (bv 8 6))) ] (Ir.Var "r")
        in
        check_bool "8 matches" true (Alive_opt.Matcher.match_at r pow2 "r" <> None);
        check_bool "6 rejected" true (Alive_opt.Matcher.match_at r not_pow2 "r" = None));
    Alcotest.test_case "i64 overflow precondition fires on safe constants"
      `Quick (fun () ->
        (* Verified at every width, so it must fire wherever the constants
           provably do not overflow — at i64 too, where the range check on
           the abstract domain alone cannot decide signed add. *)
        let r =
          rule
            "Pre: WillNotOverflowSignedAdd(C1, C2)\n\
             %a = add nsw %x, C1\n%r = add nsw %a, C2\n=>\n\
             %r = add nsw %x, C1+C2\n"
        in
        let chain c1 c2 =
          func ~params:[ ("x", 64) ]
            [
              def "a" 64
                (Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "x", Ir.Const c1));
              def "r" 64
                (Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "a", Ir.Const c2));
            ]
            (Ir.Var "r")
        in
        check_bool "5 + 7 fires" true
          (Alive_opt.Matcher.match_at r (chain (bv 64 5) (bv 64 7)) "r" <> None);
        check_bool "max + 1 is blocked" true
          (Alive_opt.Matcher.match_at r
             (chain (Bitvec.max_signed 64) (bv 64 1))
             "r"
          = None);
        let env consts =
          { Alive_opt.Concrete.func = chain (bv 64 5) (bv 64 7); consts;
            values = [] }
        in
        let pre text =
          (Alive.Parser.parse_transform
             ("Pre: " ^ text ^ "\n%r = add %x, C1\n=>\n%r = add %x, C2\n"))
            .Alive.Ast.pre
        in
        let safe = env [ ("C1", bv 64 5); ("C2", bv 64 7) ] in
        let unsafe = env [ ("C1", Bitvec.min_signed 64); ("C2", bv 64 1) ] in
        List.iter
          (fun p ->
            check_bool (p ^ " proved") true
              (Alive_opt.Concrete.tri_pred safe (pre p) = Alive_absint.Domain.True))
          [ "WillNotOverflowSignedAdd(C1, C2)"; "WillNotOverflowSignedSub(C1, C2)" ];
        check_bool "min - 1 refuted" true
          (Alive_opt.Concrete.tri_pred unsafe
             (pre "WillNotOverflowSignedSub(C1, C2)")
          = Alive_absint.Domain.False));
    Alcotest.test_case "copy target substitutes uses" `Quick (fun () ->
        let r = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let f =
          func
            [
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 0)));
              def "s" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "r", Ir.Var "y"));
            ]
            (Ir.Var "s")
        in
        match Alive_opt.Matcher.match_at r f "r" with
        | None -> Alcotest.fail "should match"
        | Some m -> (
            match Alive_opt.Matcher.rewrite r f m with
            | None -> Alcotest.fail "rewrite failed"
            | Some f' -> (
                check_bool "valid" true (Ir.validate f' = Ok ());
                match Ir.def_of f' "s" with
                | Some { Ir.inst = Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y"); _ } -> ()
                | _ -> Alcotest.fail "use not substituted")));
    Alcotest.test_case "memory rules rejected" `Quick (fun () ->
        match
          Alive_opt.Matcher.rule_of_transform
            (Alive.Parser.parse_transform
               "%p = alloca i8, 1\n%r = load %p\n=>\n%r = undef\n")
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "memory rule should be rejected");
  ]

let pass_tests =
  [
    Alcotest.test_case "dce removes dead code" `Quick (fun () ->
        let f =
          func
            [
              def "dead" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"));
              def "r" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "y"));
            ]
            (Ir.Var "r")
        in
        check_int "one def left" 1 (List.length (Alive_opt.Pass.dce f).Ir.body));
    Alcotest.test_case "pass reaches a fixpoint and counts firings" `Quick
      (fun () ->
        let r1 = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let r2 = rule "%r = mul %a, 1\n=>\n%r = %a\n" in
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 0)));
              def "b" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "a", Ir.Const (bv 8 1)));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "b", Ir.Const (bv 8 0)));
            ]
            (Ir.Var "r")
        in
        let f', stats = Alive_opt.Pass.run ~rules:[ r1; r2 ] f in
        check_int "everything folds away" 0 (List.length f'.Ir.body);
        check_bool "ret is x" true (f'.Ir.ret = Ir.Var "x");
        let total = List.fold_left (fun a (_, n) -> a + n) 0 stats in
        check_int "three firings" 3 total);
    Alcotest.test_case "optimization enables further optimization" `Quick
      (fun () ->
        (* not (not x) -> x only fires after the inner xor is exposed. *)
        let r = rule "%n = xor %a, -1\n%r = xor %n, -1\n=>\n%r = %a\n" in
        let ones = Ir.Const (Bitvec.all_ones 8) in
        let f =
          func
            [
              def "n1" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "x", ones));
              def "n2" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "n1", ones));
              def "n3" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "n2", ones));
              def "r" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "n3", ones));
            ]
            (Ir.Var "r")
        in
        let f', stats = Alive_opt.Pass.run ~rules:[ r ] f in
        check_int "no xors left" 0 (List.length f'.Ir.body);
        check_int "fired twice" 2 (List.fold_left (fun a (_, n) -> a + n) 0 stats));
    Alcotest.test_case "baseline constant folding" `Quick (fun () ->
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Const (bv 8 3), Ir.Const (bv 8 4)));
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "a", Ir.Var "x"));
            ]
            (Ir.Var "r")
        in
        let f', n = Alive_opt.Baseline.fold_constants f in
        check_bool "folded" true (n >= 1);
        match Ir.def_of f' "r" with
        | Some { Ir.inst = Ir.Binop (Ir.Mul, [], Ir.Const c, Ir.Var "x"); _ } ->
            check_bool "3+4" true (Bitvec.equal c (bv 8 7))
        | _ -> Alcotest.fail "not folded into mul");
    Alcotest.test_case "baseline does not fold UB constants" `Quick (fun () ->
        let f =
          func
            [ def "r" 8 (Ir.Binop (Ir.Udiv, [], Ir.Var "x", Ir.Const (bv 8 0))) ]
            (Ir.Var "r")
        in
        let _, n = Alive_opt.Baseline.fold_constants f in
        check_int "no folds" 0 n);
  ]

(* Satellite regressions for the fused-optimizer PR: worklist rescan
   discipline, commutation-aware template unification, abstract
   precondition discharge, and the zipf sampler's distribution. *)
let rescan_tests =
  [
    Alcotest.test_case "adjacent rewrite sites both fire" `Quick (fun () ->
        (* A copy-root rewrite at %a shrinks the body and rewrites %r's
           operand list in place; the old positional scan then skipped the
           next site. The worklist must still fire %b. *)
        let r = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 0)));
              def "b" 8 (Ir.Binop (Ir.Add, [], Ir.Var "y", Ir.Const (bv 8 0)));
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "a", Ir.Var "b"));
            ]
            (Ir.Var "r")
        in
        let f', stats = Alive_opt.Pass.run ~rules:[ r ] f in
        check_int "both adds fired" 2
          (List.fold_left (fun a (_, n) -> a + n) 0 stats);
        match Ir.def_of f' "r" with
        | Some { Ir.inst = Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y"); _ } ->
            ()
        | _ -> Alcotest.fail "successor site skipped");
    Alcotest.test_case "body-shrinking rewrite rescans the successor" `Quick
      (fun () ->
        (* The chain version: folding %a exposes nothing new, but the def
           after the shrunk position (%b, one past where %a used to sit)
           must still be examined. *)
        let r = rule "%r = add %a, 0\n=>\n%r = %a\n" in
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 0)));
              def "b" 8 (Ir.Binop (Ir.Add, [], Ir.Var "a", Ir.Const (bv 8 0)));
              def "r" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "b", Ir.Var "y"));
            ]
            (Ir.Var "r")
        in
        let f', _ = Alive_opt.Pass.run ~rules:[ r ] f in
        match Ir.def_of f' "r" with
        | Some { Ir.inst = Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "y"); _ } ->
            ()
        | _ -> Alcotest.fail "chain not fully folded");
  ]

let commute_tests =
  [
    Alcotest.test_case "source_covers sees through commutation" `Quick
      (fun () ->
        let a = rule "%r = add %x, C\n=>\n%r = %x\n" in
        let b = rule "%r = add C, %x\n=>\n%r = %x\n" in
        check_bool "a covers commuted b" true
          (Alive_opt.Matcher.source_covers a b);
        check_bool "b covers commuted a" true
          (Alive_opt.Matcher.source_covers b a));
    Alcotest.test_case "non-commutative ops stay positional" `Quick (fun () ->
        let a = rule "%r = sub %x, C\n=>\n%r = %x\n" in
        let b = rule "%r = sub C, %x\n=>\n%r = %x\n" in
        check_bool "sub not covered" false (Alive_opt.Matcher.source_covers a b);
        check_bool "sub not covered (rev)" false
          (Alive_opt.Matcher.source_covers b a));
    Alcotest.test_case "icmp eq commutes, ult does not" `Quick (fun () ->
        let a = rule "%r = icmp eq %x, C\n=>\n%r = icmp eq %x, C\n" in
        let b = rule "%r = icmp eq C, %x\n=>\n%r = icmp eq C, %x\n" in
        check_bool "eq covers commuted" true (Alive_opt.Matcher.source_covers a b);
        let c = rule "%r = icmp ult %x, C\n=>\n%r = icmp ult %x, C\n" in
        let d = rule "%r = icmp ult C, %x\n=>\n%r = icmp ult C, %x\n" in
        check_bool "ult stays positional" false
          (Alive_opt.Matcher.source_covers c d));
    Alcotest.test_case "target_feeds sees through commutation" `Quick (fun () ->
        (* a's target emits `or %x, 1`; b's source wants the constant
           first. The rewrite-cycle graph must still record the edge. *)
        let a = rule "%r = add %x, 1\n=>\n%r = or %x, 1\n" in
        let b = rule "%r = or 1, %x\n=>\n%r = add %x, 1\n" in
        check_bool "commuted edge found" true
          (Alive_opt.Matcher.target_feeds a b));
  ]

let precondition_tests =
  [
    Alcotest.test_case "analysis discharges MaskedValueIsZero at a var" `Quick
      (fun () ->
        (* %s = shl %x, 4 has its low four bits provably zero, so the
           add-becomes-or rule applies even though %s is not a literal —
           the tri-valued precondition evaluator consults known bits. *)
        let r = rule "Pre: MaskedValueIsZero(%a, C1)\n%r = add %a, C1\n=>\n%r = or %a, C1\n" in
        let shifted =
          func
            [
              def "s" 8 (Ir.Binop (Ir.Shl, [], Ir.Var "x", Ir.Const (bv 8 4)));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "s", Ir.Const (bv 8 3)));
            ]
            (Ir.Var "r")
        in
        check_bool "provable mask fires" true
          (Alive_opt.Matcher.match_at r shifted "r" <> None);
        let unprovable =
          func
            [
              def "s" 8 (Ir.Binop (Ir.Shl, [], Ir.Var "x", Ir.Const (bv 8 1)));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "s", Ir.Const (bv 8 3)));
            ]
            (Ir.Var "r")
        in
        check_bool "unprovable mask rejected" true
          (Alive_opt.Matcher.match_at r unprovable "r" = None));
    Alcotest.test_case "analysis discharges isPowerOf2 at a var" `Quick
      (fun () ->
        (* or-with-8 of a value masked to bit 3 is the singleton 8:
           known-bits alone proves the power-of-two side condition. *)
        let r = rule "Pre: isPowerOf2(%a)\n%r = mul %x, %a\n=>\n%r = mul %x, %a\n" in
        let pow2 =
          func
            ~params:[ ("x", 8); ("y", 8) ]
            [
              def "m" 8 (Ir.Binop (Ir.And, [], Ir.Var "y", Ir.Const (bv 8 8)));
              def "p" 8 (Ir.Binop (Ir.Or, [], Ir.Var "m", Ir.Const (bv 8 8)));
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "p"));
            ]
            (Ir.Var "r")
        in
        check_bool "singleton 8 proved" true
          (Alive_opt.Matcher.match_at r pow2 "r" <> None);
        let maybe_zero =
          func
            ~params:[ ("x", 8); ("y", 8) ]
            [
              def "m" 8 (Ir.Binop (Ir.And, [], Ir.Var "y", Ir.Const (bv 8 8)));
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "m"));
            ]
            (Ir.Var "r")
        in
        check_bool "possibly-zero rejected" true
          (Alive_opt.Matcher.match_at r maybe_zero "r" = None));
    Alcotest.test_case "negated precondition stays sound" `Quick (fun () ->
        (* !isPowerOf2(%a) must require a *proof* that %a is not a power
           of two — an unknown operand proves neither polarity. *)
        let r = rule "Pre: !isPowerOf2(%a)\n%r = mul %x, %a\n=>\n%r = mul %x, %a\n" in
        let unknown =
          func
            ~params:[ ("x", 8); ("y", 8) ]
            [ def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "r")
        in
        check_bool "unknown operand rejected" true
          (Alive_opt.Matcher.match_at r unknown "r" = None));
  ]

let zipf_tests =
  [
    Alcotest.test_case "zipf sampler follows the distribution" `Quick
      (fun () ->
        (* Chi-squared goodness of fit against p(k) = (1/(k+1)^s)/H over
           200k draws; 19 degrees of freedom, the 99.9th percentile is
           ~43.8, so 60 only trips on a genuinely wrong sampler. *)
        let n = 20 and s = 1.5 and draws = 200_000 in
        let st = Random.State.make [| 12345 |] in
        let sample = Alive_opt.Workload.zipf_sampler st ~n ~s in
        let counts = Array.make n 0 in
        for _ = 1 to draws do
          let k = sample () in
          check_bool "in range" true (k >= 0 && k < n);
          counts.(k) <- counts.(k) + 1
        done;
        let h = ref 0.0 in
        for k = 1 to n do
          h := !h +. (1.0 /. Float.pow (float_of_int k) s)
        done;
        let chi2 = ref 0.0 in
        for k = 0 to n - 1 do
          let expected =
            float_of_int draws /. Float.pow (float_of_int (k + 1)) s /. !h
          in
          let d = float_of_int counts.(k) -. expected in
          chi2 := !chi2 +. (d *. d /. expected)
        done;
        check_bool
          (Printf.sprintf "chi2 %.1f < 60" !chi2)
          true (!chi2 < 60.0);
        check_bool "rank 0 dominates" true (counts.(0) > counts.(1)));
    Alcotest.test_case "zipf sampler is total over its range" `Quick (fun () ->
        (* The binary search must cope with x landing beyond the last
           cumulative cell (floating-point edge) and with n = 1. *)
        let st = Random.State.make [| 7 |] in
        let one = Alive_opt.Workload.zipf_sampler st ~n:1 ~s:1.5 in
        for _ = 1 to 100 do
          check_int "n=1 always 0" 0 (one ())
        done);
  ]

let workload_tests =
  [
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        let config = { Alive_opt.Workload.default with functions = 5 } in
        let a = Alive_opt.Workload.generate config valid_rules in
        let b = Alive_opt.Workload.generate config valid_rules in
        check_bool "same output" true
          (List.for_all2
             (fun (f : Ir.func) (g : Ir.func) ->
               Format.asprintf "%a" Ir.pp_func f = Format.asprintf "%a" Ir.pp_func g)
             a b));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let c1 = { Alive_opt.Workload.default with functions = 3; seed = 1 } in
        let c2 = { c1 with seed = 2 } in
        let a = Alive_opt.Workload.generate c1 valid_rules in
        let b = Alive_opt.Workload.generate c2 valid_rules in
        check_bool "different" false
          (List.for_all2
             (fun (f : Ir.func) (g : Ir.func) ->
               Format.asprintf "%a" Ir.pp_func f = Format.asprintf "%a" Ir.pp_func g)
             a b));
    Alcotest.test_case "rules fire on the workload" `Quick (fun () ->
        let config = { Alive_opt.Workload.default with functions = 20 } in
        let funcs = Alive_opt.Workload.generate config valid_rules in
        let _, stats = Alive_opt.Pass.run_module ~rules:valid_rules funcs in
        let total = List.fold_left (fun a (_, n) -> a + n) 0 stats in
        check_bool "many firings" true (total > 50));
  ]

(* The central end-to-end property: for random workloads, the optimized
   function refines the original on random concrete inputs (under the
   deterministic undef policy). *)
let refinement_property =
  let gen = QCheck2.Gen.int_range 0 10_000 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"optimized code refines the original"
       ~print:string_of_int gen (fun seed ->
         let config =
           { Alive_opt.Workload.default with functions = 4; seed;
             instructions_per_function = 25 }
         in
         let funcs = Alive_opt.Workload.generate config valid_rules in
         let optimized, _ = Alive_opt.Pass.run_module ~rules:valid_rules funcs in
         let st = Random.State.make [| seed + 1 |] in
         List.for_all2
           (fun (f : Ir.func) (g : Ir.func) ->
             List.for_all
               (fun _ ->
                 let args =
                   List.map
                     (fun (_, w) ->
                       Bitvec.make ~width:w (Random.State.int64 st Int64.max_int))
                     f.Ir.params
                 in
                 match (Interp.run f args, Interp.run g args) with
                 | Ok src, Ok tgt -> Interp.refines src tgt
                 | _ -> false)
               (List.init 10 Fun.id))
           funcs optimized))

(* The baseline must also refine, and never produce costlier code than the
   Alive-only pass. *)
let baseline_property =
  let gen = QCheck2.Gen.int_range 0 10_000 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"baseline refines and is at least as good"
       ~print:string_of_int gen (fun seed ->
         let config =
           { Alive_opt.Workload.default with functions = 3; seed;
             instructions_per_function = 20 }
         in
         let funcs = Alive_opt.Workload.generate config valid_rules in
         List.for_all
           (fun (f : Ir.func) ->
             let alive_only, _ = Alive_opt.Pass.run ~rules:valid_rules f in
             let full, _ = Alive_opt.Baseline.run ~rules:valid_rules f in
             Cost.func_cost full <= Cost.func_cost alive_only
             &&
             let st = Random.State.make [| seed |] in
             List.for_all
               (fun _ ->
                 let args =
                   List.map
                     (fun (_, w) ->
                       Bitvec.make ~width:w (Random.State.int64 st Int64.max_int))
                     f.Ir.params
                 in
                 match (Interp.run f args, Interp.run full args) with
                 | Ok src, Ok tgt -> Interp.refines src tgt
                 | _ -> false)
               (List.init 10 Fun.id))
           funcs))

(* optimize-zipf's input: [Workload.default] at seed 1, 1,000 functions. *)
let seed1_inputs =
  lazy
    (Alive_opt.Workload.generate
       { Alive_opt.Workload.default with seed = 1; functions = 1000 }
       valid_rules)

let firings (o : Alive_opt.Pass.outcome) =
  List.fold_left (fun a (_, n) -> a + n) 0 o.stats

(* [s] with each fresh name [%alive.N] renumbered by first appearance: the
   global name counter depends on what ran before, the output does not. *)
let renumber s =
  let prefix = "%alive." in
  let n = String.length s and p = String.length prefix in
  let names = Hashtbl.create 8 and b = Buffer.create n in
  let rec go i =
    if i + p <= n && String.sub s i p = prefix then begin
      let j = ref (i + p) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      let name = String.sub s i (!j - i) in
      let k =
        match Hashtbl.find_opt names name with
        | Some k -> k
        | None ->
            let k = Hashtbl.length names in
            Hashtbl.replace names name k;
            k
      in
      Buffer.add_string b (Printf.sprintf "%%fresh.%d" k);
      go !j
    end
    else if i < n then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* One outcome as text: the output function, its firings sorted by rule
   name, and whether the budget or the cycle guard cut it short. *)
let outcome_text (o : Alive_opt.Pass.outcome) =
  Printf.sprintf "%s\n%s %b\n"
    (renumber (Format.asprintf "%a" Ir.pp_func o.func))
    (String.concat ";"
       (List.map
          (fun (r, n) -> Printf.sprintf "%s=%d" r n)
          (List.sort compare o.stats)))
    o.saturated

(* Which rule fires where, and in what order, is the pass's output: the
   seed-1 totals and table digest are perfbench optimize-zipf's counts line,
   seeds 2, 4 and 5 pin every outcome, and the seed-83 digest covers the
   function after every prefix of the firing sequence (the budget cuts the
   pass after k firings). *)
let pinned_output =
  Alcotest.test_case "pass output is pinned" `Slow (fun () ->
      let run = Alive_opt.Pass.run_guarded ~rules:valid_rules in
      List.iter
        (fun (seed, fires, cost_out, saturated, md5) ->
          let outcomes =
            List.map run
              (Alive_opt.Workload.generate
                 { Alive_opt.Workload.default with seed; functions = 1000 }
                 valid_rules)
          in
          let sum g = List.fold_left (fun a o -> a + g o) 0 outcomes in
          let at what = Printf.sprintf "seed %d %s" seed what in
          check_int (at "firings") fires (sum firings);
          check_int (at "cost_out") cost_out
            (sum (fun (o : Alive_opt.Pass.outcome) -> Cost.func_cost o.func));
          check_int (at "saturated") saturated
            (sum (fun (o : Alive_opt.Pass.outcome) -> Bool.to_int o.saturated));
          let text = String.concat "" (List.map outcome_text outcomes) in
          Alcotest.(check string)
            (at "outcomes") md5
            (Digest.to_hex (Digest.string text)))
        [
          (2, 19114, 41243, 4, "9b684eebb6f3a6399686572aca745acb");
          (4, 19323, 41125, 3, "b2cd4aa7a239ed28f3d8b05234e4255b");
          (5, 18940, 41104, 3, "2fb2b19f75d0809f12b0249670b2277f");
        ];
      let inputs = Lazy.force seed1_inputs in
      let outcomes = List.map run inputs in
      let sum g = List.fold_left (fun a o -> a + g o) 0 outcomes in
      let table =
        List.fold_left
          (fun t (o : Alive_opt.Pass.outcome) ->
            Alive_opt.Pass.merge_stats t o.stats)
          [] outcomes
      in
      (* perfbench's opt_counts format *)
      let table_md5 =
        List.sort compare table
        |> List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n)
        |> String.concat ";" |> Digest.string |> Digest.to_hex
      in
      check_int "firings" 19203 (sum firings);
      check_int "cost_out" 40799
        (sum (fun (o : Alive_opt.Pass.outcome) -> Cost.func_cost o.func));
      check_int "saturated" 2
        (sum (fun (o : Alive_opt.Pass.outcome) -> Bool.to_int o.saturated));
      check_int "rules fired" 133 (List.length table);
      Alcotest.(check string)
        "firing table" "613c59dcbfc6d0d62e8d08d748494e02" table_md5;
      let states = Buffer.create (1 lsl 20) in
      List.iter
        (fun f ->
          for k = 0 to firings (run f) do
            Buffer.add_string states
              (outcome_text
                 (Alive_opt.Pass.run_guarded ~rules:valid_rules ~max_rewrites:k
                    f))
          done)
        (Alive_opt.Workload.generate
           { Alive_opt.Workload.default with seed = 83; functions = 100 }
           valid_rules);
      Alcotest.(check string)
        "every state at seed 83" "1bb3db6228d81df76b24541b046ab727"
        (Digest.to_hex (Digest.string (Buffer.contents states))))

(* DCE as it used to be: drop defs without uses until none drops. *)
let rec dce_fixpoint (f : Ir.func) =
  let uses = Ir.uses_of f in
  let body =
    List.filter (fun (d : Ir.def) -> Hashtbl.mem uses d.Ir.name) f.Ir.body
  in
  if List.length body = List.length f.Ir.body then f
  else dce_fixpoint { f with Ir.body = body }

let dce_matches_fixpoint =
  Alcotest.test_case "dce keeps exactly the defs ret reaches" `Quick
    (fun () ->
      (* %d3 uses %d2 uses %d1, and nothing uses %d3; %k feeds both the
         dead chain and ret. *)
      let chain =
        func
          [
            def "k" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"));
            def "d1" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "k", Ir.Var "k"));
            def "d2" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "d1", Ir.Var "x"));
            def "r" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "k", Ir.Var "y"));
            def "d3" 8 (Ir.Binop (Ir.Or, [], Ir.Var "d2", Ir.Var "r"));
          ]
          (Ir.Var "r")
      in
      check_int "chain reduced to its live defs" 2
        (List.length (Alive_opt.Pass.dce chain).Ir.body);
      let inputs = chain :: Lazy.force seed1_inputs in
      let total = ref 0 and dead = ref 0 in
      List.iter
        (fun (f : Ir.func) ->
          let want = dce_fixpoint f and got = Alive_opt.Pass.dce f in
          total := !total + List.length f.Ir.body;
          dead := !dead + List.length f.Ir.body - List.length want.Ir.body;
          check_bool (f.Ir.fname ^ " agrees with the fixpoint") true
            (got.Ir.body = want.Ir.body);
          if want == f then
            check_bool (f.Ir.fname ^ " returned as is") true (got == f))
        inputs;
      (* the raw workload holds dead code for the sweep to find *)
      check_int "input defs" 70109 !total;
      check_int "dead defs" 21637 !dead)

(* Words a token mutation may put in place of another: opcodes, attributes,
   types (two of them out of range), keywords and edge literals. [undef] is
   left out: under [Interp]'s pinned-undef policy a correct rewrite that
   drops an undef can look like a wrong answer. *)
let fuzz_words =
  [|
    "add"; "sub"; "mul"; "udiv"; "sdiv"; "urem"; "srem"; "shl"; "lshr";
    "ashr"; "and"; "or"; "xor"; "icmp"; "eq"; "ne"; "ult"; "sle"; "select";
    "zext"; "sext"; "trunc"; "to"; "freeze"; "nsw"; "nuw"; "exact"; "i1";
    "i8"; "i16"; "i32"; "i64"; "i0"; "i65"; "ret"; "define"; "0"; "1"; "-1";
    "127"; "-128"; "9223372036854775807"; "-9223372036854775808";
    "99999999999999999999"; "%p0"; "%v1"; "@f"; ",";
  |]

(* One byte or token mutation of [text]. *)
let mutate st text =
  let n = String.length text in
  let pos = Random.State.int st n in
  let bytes = "0123456789-%@=,(){};\n ixnsu" in
  let rand_byte () =
    String.make 1 bytes.[Random.State.int st (String.length bytes)]
  in
  let word_at i =
    let is_word c =
      (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '%' || c = '-'
      || c = '.' || c = '@'
    in
    let a = ref i and b = ref i in
    while !a > 0 && is_word text.[!a - 1] do decr a done;
    while !b < n && is_word text.[!b] do incr b done;
    (!a, !b)
  in
  let splice a b s = String.sub text 0 a ^ s ^ String.sub text b (n - b) in
  match Random.State.int st 6 with
  | 0 -> splice pos (pos + 1) (rand_byte ())
  | 1 -> splice pos (pos + 1) ""
  | 2 -> splice pos pos (rand_byte ())
  | 3 ->
      (* a word of the module itself, moved elsewhere *)
      let a, b = word_at (Random.State.int st n) in
      let a', b' = word_at pos in
      splice a' b' (String.sub text a (b - a))
  | 4 ->
      let a, b = word_at pos in
      splice a b fuzz_words.(Random.State.int st (Array.length fuzz_words))
  | _ ->
      (* a line repeated or dropped *)
      let a = try String.rindex_from text pos '\n' + 1 with Not_found -> 0 in
      let b = try String.index_from text pos '\n' + 1 with Not_found -> n in
      if Random.State.bool st then splice a a (String.sub text a (b - a))
      else splice a b ""

let fuzz_parser_through_pass =
  Alcotest.test_case "mutated IR parses cleanly and optimizes soundly" `Slow
    (fun () ->
      let st = Random.State.make [| 0x1f2 |] in
      let modules =
        Alive_opt.Workload.generate
          { Alive_opt.Workload.default with seed = 5; functions = 90;
            instructions_per_function = 12 }
          valid_rules
        |> List.mapi (fun i f -> (i / 3, f))
        |> List.fold_left
             (fun acc (m, f) ->
               match acc with
               | (m', fs) :: rest when m = m' -> (m, f :: fs) :: rest
               | _ -> (m, [ f ]) :: acc)
             []
        |> List.map (fun (_, fs) ->
               String.concat "\n"
                 (List.rev_map (Format.asprintf "%a" Ir.pp_func) fs))
        |> Array.of_list
      in
      let parsed = ref 0 and failures = ref [] in
      let fail text msg = failures := (msg ^ " in\n" ^ text) :: !failures in
      for _ = 1 to 20_000 do
        let text = modules.(Random.State.int st (Array.length modules)) in
        let text =
          List.fold_left
            (fun t _ -> mutate st t)
            text
            (List.init (1 + Random.State.int st 3) Fun.id)
        in
        match Ir_parser.parse_module text with
        | exception e -> fail text ("parser raised " ^ Printexc.to_string e)
        | Error _ -> ()
        | Ok funcs ->
            List.iter
              (fun (f : Ir.func) ->
                incr parsed;
                match Alive_opt.Pass.run_guarded ~rules:valid_rules f with
                | exception e ->
                    fail text ("pass raised " ^ Printexc.to_string e)
                | o -> (
                    match Ir.validate o.func with
                    | Error msg -> fail text ("invalid output: " ^ msg)
                    | Ok () ->
                        for _ = 1 to 3 do
                          let args =
                            List.map
                              (fun (_, w) ->
                                Bitvec.make ~width:w
                                  (Random.State.int64 st Int64.max_int))
                              f.Ir.params
                          in
                          match (Interp.run f args, Interp.run o.func args) with
                          | Ok src, Ok tgt when Interp.refines src tgt -> ()
                          | _ -> fail text "output does not refine its input"
                        done))
              funcs
      done;
      Printf.printf "%d parsed functions; %d failures\n" !parsed
        (List.length !failures);
      List.iteri (fun i m -> if i < 3 then print_endline m) !failures;
      check_int "failures" 0 (List.length !failures);
      check_bool "mutants reach the pass" true (!parsed > 1000))

let suite =
  ( "opt",
    matcher_tests @ pass_tests @ rescan_tests @ commute_tests
    @ precondition_tests @ zipf_tests @ workload_tests
    @ [ refinement_property; baseline_property; pinned_output;
        dce_matches_fixpoint; fuzz_parser_through_pass ] )
