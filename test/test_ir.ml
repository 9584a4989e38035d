(* Tests for the IR substrate: validation, the undef/poison/UB interpreter
   (against the semantics of §2.4, Tables 1-2), the known-bits analyses, and
   the cost model. *)

let bv w v = Bitvec.of_int ~width:w v

let func ?(params = [ ("x", 8); ("y", 8) ]) body ret =
  { Ir.fname = "t"; params; body; ret }

let def name width inst = { Ir.name; width; inst }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_ok f args =
  match Interp.run f args with
  | Ok o -> o
  | Error e -> Alcotest.fail ("interpreter error: " ^ e)

let expect_val f args v =
  match run_ok f args with
  | Interp.Ret (Interp.Val c) ->
      Alcotest.(check string) "value" (Bitvec.to_string_signed v)
        (Bitvec.to_string_signed c)
  | Interp.Ret Interp.Poison -> Alcotest.fail "got poison"
  | Interp.Ub -> Alcotest.fail "got UB"

let validate_tests =
  [
    Alcotest.test_case "valid function accepted" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "ok" true (Ir.validate f = Ok ()));
    Alcotest.test_case "use before def rejected" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "b", Ir.Var "x"));
              def "b" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "error" true (Result.is_error (Ir.validate f)));
    Alcotest.test_case "width mismatch rejected" `Quick (fun () ->
        let f =
          func
            [ def "a" 4 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "error" true (Result.is_error (Ir.validate f)));
    Alcotest.test_case "icmp must be i1" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Icmp (Ir.Eq, Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "error" true (Result.is_error (Ir.validate f)));
    Alcotest.test_case "double definition rejected" `Quick (fun () ->
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"));
              def "a" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "y"));
            ]
            (Ir.Var "a")
        in
        check_bool "error" true (Result.is_error (Ir.validate f)));
    Alcotest.test_case "attribute its opcode does not take rejected" `Quick
      (fun () ->
        let rejects inst =
          Result.is_error (Ir.validate (func [ def "a" 8 inst ] (Ir.Var "a")))
        in
        check_bool "add exact" true
          (rejects (Ir.Binop (Ir.Add, [ Ir.Exact ], Ir.Var "x", Ir.Var "y")));
        check_bool "and nsw" true
          (rejects (Ir.Binop (Ir.And, [ Ir.Nsw ], Ir.Var "x", Ir.Var "x")));
        check_bool "add nsw nuw" false
          (rejects (Ir.Binop (Ir.Add, [ Ir.Nsw; Ir.Nuw ], Ir.Var "x", Ir.Var "y")));
        check_bool "parser" true
          (Result.is_error
             (Ir_parser.parse_func
                "define i8 @f(i8 %x, i8 %y) {\n  %a = add exact i8 %x, %y\n  %b = and nsw i8 %a, %a\n  ret %b\n}\n")));
    Alcotest.test_case "zext must widen" `Quick (fun () ->
        let f = func [ def "a" 8 (Ir.Conv (Ir.Zext, Ir.Var "x")) ] (Ir.Var "a") in
        check_bool "error" true (Result.is_error (Ir.validate f)));
    Alcotest.test_case "repeated parameter rejected" `Quick (fun () ->
        let f =
          func ~params:[ ("x", 8); ("x", 16) ] [] (Ir.Var "x")
        in
        check_bool "validate" true (Result.is_error (Ir.validate f));
        check_bool "parser" true
          (Result.is_error
             (Ir_parser.parse_func "define i8 @f(i8 %x, i16 %x) {\n  ret %x\n}\n")));
  ]

let interp_tests =
  [
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        expect_val f [ bv 8 7; bv 8 3 ] (bv 8 21));
    Alcotest.test_case "division by zero is UB" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Udiv, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "ub" true (run_ok f [ bv 8 1; bv 8 0 ] = Interp.Ub));
    Alcotest.test_case "poison dividend does not mask div-by-zero UB" `Quick
      (fun () ->
        (* Definedness (Table 1) is over carrier values, as in vcgen's
           encoding: udiv (poison), 0 is UB, not poison. A rule that
           rewrites the dividend away (e.g. udiv (shl nuw x, C), 0 ->
           udiv x, 0) is valid and must not trip differential testing. *)
        let f =
          func
            [
              def "p" 8 (Ir.Binop (Ir.Shl, [ Ir.Nuw ], Ir.Var "x", Ir.Const (bv 8 4)));
              def "a" 8 (Ir.Binop (Ir.Udiv, [], Ir.Var "p", Ir.Const (bv 8 0)));
            ]
            (Ir.Var "a")
        in
        check_bool "ub" true (run_ok f [ bv 8 255; bv 8 0 ] = Interp.Ub));
    Alcotest.test_case "INT_MIN sdiv -1 is UB" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Sdiv, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "ub" true
          (run_ok f [ Bitvec.min_signed 8; Bitvec.all_ones 8 ] = Interp.Ub));
    Alcotest.test_case "over-shift is UB" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Shl, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "ub" true (run_ok f [ bv 8 1; bv 8 8 ] = Interp.Ub));
    Alcotest.test_case "nsw overflow is poison, not UB" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "poison" true
          (run_ok f [ bv 8 127; bv 8 1 ] = Interp.Ret Interp.Poison));
    Alcotest.test_case "poison taints dependent instructions" `Quick (fun () ->
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [ Ir.Nuw ], Ir.Var "x", Ir.Var "y"));
              def "b" 8 (Ir.Binop (Ir.And, [], Ir.Var "a", Ir.Const (bv 8 0)));
            ]
            (Ir.Var "b")
        in
        check_bool "poison through and 0" true
          (run_ok f [ bv 8 255; bv 8 1 ] = Interp.Ret Interp.Poison));
    Alcotest.test_case "exact udiv requires lossless division" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Udiv, [ Ir.Exact ], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "a")
        in
        check_bool "poison on remainder" true
          (run_ok f [ bv 8 7; bv 8 2 ] = Interp.Ret Interp.Poison);
        expect_val f [ bv 8 8; bv 8 2 ] (bv 8 4));
    Alcotest.test_case "select poison from either arm" `Quick (fun () ->
        let f =
          func
            [
              def "p" 8 (Ir.Binop (Ir.Add, [ Ir.Nuw ], Ir.Var "x", Ir.Var "y"));
              def "c" 1 (Ir.Icmp (Ir.Eq, Ir.Var "x", Ir.Var "x"));
              def "s" 8 (Ir.Select (Ir.Var "c", Ir.Const (bv 8 3), Ir.Var "p"));
            ]
            (Ir.Var "s")
        in
        (* The verifier's reading: the unchosen arm's poison flows too. *)
        check_bool "poison" true
          (run_ok f [ bv 8 255; bv 8 1 ] = Interp.Ret Interp.Poison);
        expect_val f [ bv 8 1; bv 8 1 ] (bv 8 3));
    Alcotest.test_case "verified select rewrite refines" `Quick (fun () ->
        (* %p = add nsw %x, 1; %r = select %c, %y, %p
           => %q = add %x, 1; %t = icmp slt %q, %x; %u = select %t, 0, %y;
              %r = select %c, %u, %p
           is valid at i4 and i8; at x=127, c=1, y=5 both sides are poison. *)
        let params = [ ("x", 8); ("c", 1); ("y", 8) ] in
        let p =
          def "p" 8 (Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "x", Ir.Const (bv 8 1)))
        in
        let src =
          func ~params
            [ p; def "r" 8 (Ir.Select (Ir.Var "c", Ir.Var "y", Ir.Var "p")) ]
            (Ir.Var "r")
        and tgt =
          func ~params
            [
              p;
              def "q" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 1)));
              def "t" 1 (Ir.Icmp (Ir.Slt, Ir.Var "q", Ir.Var "x"));
              def "u" 8 (Ir.Select (Ir.Var "t", Ir.Const (bv 8 0), Ir.Var "y"));
              def "r" 8 (Ir.Select (Ir.Var "c", Ir.Var "u", Ir.Var "p"));
            ]
            (Ir.Var "r")
        in
        let args = [ bv 8 127; bv 1 1; bv 8 5 ] in
        let s = run_ok src args and t = run_ok tgt args in
        check_bool "source poison" true (s = Interp.Ret Interp.Poison);
        check_bool "target poison" true (t = Interp.Ret Interp.Poison);
        check_bool "refines" true (Interp.refines s t));
    Alcotest.test_case "undef resolves per policy" `Quick (fun () ->
        let f = func [ def "a" 8 (Ir.Binop (Ir.Or, [], Ir.Undef 8, Ir.Const (bv 8 1))) ] (Ir.Var "a") in
        (* Zero policy: undef = 0, result 1. *)
        expect_val f [ bv 8 0; bv 8 0 ] (bv 8 1));
    Alcotest.test_case "freeze pins poison" `Quick (fun () ->
        let f =
          func
            [
              def "p" 8 (Ir.Binop (Ir.Add, [ Ir.Nuw ], Ir.Var "x", Ir.Var "y"));
              def "z" 8 (Ir.Freeze (Ir.Var "p"));
            ]
            (Ir.Var "z")
        in
        expect_val f [ bv 8 255; bv 8 1 ] (bv 8 0));
    Alcotest.test_case "refines relation" `Quick (fun () ->
        check_bool "ub refines anything" true
          (Interp.refines Interp.Ub (Interp.Ret (Interp.Val (bv 8 3))));
        check_bool "poison refines value" true
          (Interp.refines (Interp.Ret Interp.Poison) (Interp.Ret (Interp.Val (bv 8 3))));
        check_bool "value does not refine ub" false
          (Interp.refines (Interp.Ret (Interp.Val (bv 8 3))) Interp.Ub);
        check_bool "values must match" false
          (Interp.refines
             (Interp.Ret (Interp.Val (bv 8 3)))
             (Interp.Ret (Interp.Val (bv 8 4)))));
  ]

let analysis_tests =
  [
    Alcotest.test_case "known bits of constants" `Quick (fun () ->
        let f = func [] (Ir.Const (bv 8 0xF0)) in
        let kb = Analysis.known_bits f (Ir.Const (bv 8 0xF0)) in
        check_bool "ones" true (Bitvec.equal kb.ones (bv 8 0xF0));
        check_bool "zeros" true (Bitvec.equal kb.zeros (bv 8 0x0F)));
    Alcotest.test_case "and masks known zeros" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.And, [], Ir.Var "x", Ir.Const (bv 8 0x0F))) ]
            (Ir.Var "a")
        in
        let kb = Analysis.known_bits f (Ir.Var "a") in
        check_bool "top nibble is zero" true (Bitvec.equal kb.zeros (bv 8 0xF0));
        check_bool "bottom nibble unknown" true (Bitvec.is_zero kb.ones));
    Alcotest.test_case "zext high bits are zero" `Quick (fun () ->
        let f =
          func ~params:[ ("x", 4) ]
            [ def "a" 8 (Ir.Conv (Ir.Zext, Ir.Var "x")) ]
            (Ir.Var "a")
        in
        let kb = Analysis.known_bits f (Ir.Var "a") in
        check_bool "high nibble zero" true (Bitvec.equal kb.zeros (bv 8 0xF0)));
    Alcotest.test_case "non-negative via known sign bit" `Quick (fun () ->
        let f =
          func
            [ def "a" 8 (Ir.Binop (Ir.Lshr, [], Ir.Var "x", Ir.Const (bv 8 1))) ]
            (Ir.Var "a")
        in
        let kb = Analysis.known_bits f (Ir.Var "a") in
        check_bool "nonneg" true (Bitvec.bit kb.zeros 7));
  ]

(* Property: known-bits facts hold on random concrete executions. *)
let known_bits_sound =
  let gen =
    let open QCheck2.Gen in
    let* x = int_range 0 255 in
    let* y = int_range 0 255 in
    let* mask = int_range 0 255 in
    return (x, y, mask)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"known bits are sound on executions"
       ~print:(fun (x, y, m) -> Printf.sprintf "x=%d y=%d mask=%d" x y m)
       gen
       (fun (x, y, mask) ->
         let f =
           func
             [
               def "a" 8 (Ir.Binop (Ir.And, [], Ir.Var "x", Ir.Const (bv 8 mask)));
               def "b" 8 (Ir.Binop (Ir.Or, [], Ir.Var "a", Ir.Var "y"));
               def "c" 8 (Ir.Binop (Ir.Xor, [], Ir.Var "b", Ir.Const (bv 8 0x55)));
             ]
             (Ir.Var "c")
         in
         let kb = Analysis.known_bits f (Ir.Var "c") in
         match run_ok f [ bv 8 x; bv 8 y ] with
         | Interp.Ret (Interp.Val v) ->
             Bitvec.is_zero (Bitvec.logand v kb.zeros)
             && Bitvec.equal (Bitvec.logand v kb.ones) kb.ones
         | _ -> false))

let cost_tests =
  [
    Alcotest.test_case "division dominates" `Quick (fun () ->
        check_bool "div > mul > add" true
          (Cost.inst_cost (Ir.Binop (Ir.Udiv, [], Ir.Var "x", Ir.Var "y"))
           > Cost.inst_cost (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y"))
          && Cost.inst_cost (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Var "y"))
             > Cost.inst_cost (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"))));
    Alcotest.test_case "func cost sums" `Quick (fun () ->
        let f =
          func
            [
              def "a" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"));
              def "b" 8 (Ir.Binop (Ir.Udiv, [], Ir.Var "a", Ir.Var "y"));
            ]
            (Ir.Var "b")
        in
        check_int "1 + 20" 21 (Cost.func_cost f));
  ]

(* --- Textual IR parser --- *)

let parser_tests =
  [
    Alcotest.test_case "parse a function" `Quick (fun () ->
        match
          Ir_parser.parse_func
            "define i8 @f(i8 %x, i8 %y) {\n  %t = add nsw i8 %x, %y\n  %c = icmp ult %t, %y\n  %r = select %c, i8 %t, 0\n  ret %r\n}\n"
        with
        | Ok f ->
            check_int "defs" 3 (List.length f.Ir.body);
            check_int "params" 2 (List.length f.Ir.params);
            check_bool "valid" true (Ir.validate f = Ok ())
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parse conversions" `Quick (fun () ->
        match
          Ir_parser.parse_func
            "define i16 @g(i8 %x) {\n  %w = zext i8 %x to i16\n  %t = trunc i16 %w to i4\n  %b = sext i4 %t to i16\n  ret %b\n}\n"
        with
        | Ok f -> check_int "defs" 3 (List.length f.Ir.body)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "reject invalid SSA" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error
             (Ir_parser.parse_func
                "define i8 @f(i8 %x) {\n  %a = add i8 %b, %x\n  %b = add i8 %x, %x\n  ret %a\n}\n")));
    Alcotest.test_case "reject width mismatch" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error
             (Ir_parser.parse_func
                "define i8 @f(i8 %x, i4 %y) {\n  %a = add i8 %x, %y\n  ret %a\n}\n")));
    Alcotest.test_case "parse a module of two functions" `Quick (fun () ->
        match
          Ir_parser.parse_module
            "define i8 @f(i8 %x) {\n  %a = add i8 %x, 1\n  ret %a\n}\n\ndefine i4 @g(i4 %y) {\n  %b = xor i4 %y, -1\n  ret %b\n}\n"
        with
        | Ok fs -> check_int "two functions" 2 (List.length fs)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "reject unsupported widths" `Quick (fun () ->
        (* Bitvec holds 1..64 bits; a wider or empty type, or one whose
           width overflows an int, is a parse error rather than an
           exception. *)
        List.iter
          (fun ty ->
            let text =
              Printf.sprintf
                "define %s @f(%s %%x) {\n  %%a = add %%x, 1\n  ret %%a\n}\n" ty
                ty
            in
            match Ir_parser.parse_func text with
            | Ok _ -> Alcotest.failf "%s accepted" ty
            | Error _ -> ())
          [ "i128"; "i0"; "i65"; "i99999999999999999999" ]);
    Alcotest.test_case "reject an annotation that contradicts" `Quick
      (fun () ->
        check_bool "ret i8 of an i16" true
          (Result.is_error
             (Ir_parser.parse_func "define i8 @f(i16 %x) {\n  ret i8 %x\n}\n"));
        check_bool "true annotated i8" true
          (Result.is_error
             (Ir_parser.parse_func
                "define i1 @f(i1 %c) {\n  %r = select %c, i8 true, false\n  ret %r\n}\n"));
        check_bool "icmp of two i16 annotated i8" true
          (Result.is_error
             (Ir_parser.parse_func
                "define i1 @f(i16 %x, i16 %y) {\n  %c = icmp eq i8 %x, %y\n  ret %c\n}\n")));
    Alcotest.test_case "comments and booleans" `Quick (fun () ->
        match
          Ir_parser.parse_func
            "; leading comment\ndefine i8 @f(i1 %c, i8 %x) {\n  %r = select %c, i8 %x, 0 ; pick\n  ret %r\n}\n"
        with
        | Ok f -> check_int "defs" 1 (List.length f.Ir.body)
        | Error e -> Alcotest.fail e);
  ]

(* Print → parse round-trip over random workload functions. *)
let roundtrip_property =
  let gen = QCheck2.Gen.int_range 0 1000 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~name:"pp_func/parse_func round trip"
       ~print:string_of_int gen (fun seed ->
         (* A tiny seeded function using all instruction kinds. *)
         let st = Random.State.make [| seed |] in
         let w = 4 + Random.State.int st 12 in
         let c k = Ir.Const (Bitvec.of_int ~width:w k) in
         let f =
           {
             Ir.fname = "rt";
             params = [ ("x", w); ("y", w) ];
             body =
               [
                 { Ir.name = "a"; width = w;
                   inst = Ir.Binop (Ir.Add, [ Ir.Nsw ], Ir.Var "x", Ir.Var "y") };
                 { Ir.name = "c"; width = 1;
                   inst = Ir.Icmp (Ir.Slt, Ir.Var "a", c (Random.State.int st 7)) };
                 { Ir.name = "s"; width = w;
                   inst = Ir.Select (Ir.Var "c", Ir.Var "a", Ir.Var "x") };
                 { Ir.name = "z"; width = w + 4;
                   inst = Ir.Conv (Ir.Zext, Ir.Var "s") };
                 { Ir.name = "t"; width = w;
                   inst = Ir.Conv (Ir.Trunc, Ir.Var "z") };
                 { Ir.name = "f"; width = w; inst = Ir.Freeze (Ir.Var "t") };
               ];
             ret = Ir.Var "f";
           }
         in
         let printed = Format.asprintf "%a@." Ir.pp_func f in
         match Ir_parser.parse_func printed with
         | Error e -> QCheck2.Test.fail_reportf "no parse: %s\n%s" e printed
         | Ok f' ->
             String.equal printed (Format.asprintf "%a@." Ir.pp_func f')))

let suite =
  ( "ir",
    validate_tests @ interp_tests @ analysis_tests @ [ known_bits_sound ]
    @ cost_tests @ parser_tests @ [ roundtrip_property ] )
