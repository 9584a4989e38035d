(* Tests for the Alive core: lexer/parser, scoping, typing, verification
   condition generation, refinement checking (including the paper's own
   examples), counterexample rendering, attribute inference, and C++
   generation. *)

open Alive

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Parser.parse_transform

let is_valid ?widths text =
  Refine.is_valid_verdict (Refine.check ?widths (parse text))

let invalid_kind text =
  match Refine.check (parse text) with
  | Refine.Invalid cex -> Some cex.kind
  | _ -> None

(* --- Parser --- *)

let parser_tests =
  [
    Alcotest.test_case "parse the paper intro example" `Quick (fun () ->
        let t = parse "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x\n" in
        check_int "source stmts" 2 (List.length t.src);
        check_int "target stmts" 1 (List.length t.tgt);
        check_bool "no precondition" true (t.pre = Ast.Ptrue));
    Alcotest.test_case "parse name and precondition" `Quick (fun () ->
        let t =
          parse
            "Name: PR21245\nPre: C2 % (1 << C1) == 0\n%s = shl nsw %X, C1\n%r = sdiv %s, C2\n=>\n%r = sdiv %X, C2 / (1 << C1)\n"
        in
        check_string "name" "PR21245" t.name;
        check_bool "has precondition" true (t.pre <> Ast.Ptrue));
    Alcotest.test_case "parse attributes" `Quick (fun () ->
        let t = parse "%r = add nsw nuw %x, %y\n=>\n%r = add %x, %y\n" in
        match t.src with
        | [ Ast.Def (_, _, Ast.Binop (Ast.Add, attrs, _, _)) ] ->
            check_bool "nsw" true (List.mem Ast.Nsw attrs);
            check_bool "nuw" true (List.mem Ast.Nuw attrs)
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "parse type annotations" `Quick (fun () ->
        let t = parse "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3\n" in
        match t.src with
        | [ Ast.Def (_, _, Ast.Select (_, a, _)) ] ->
            check_bool "i4 annotation" true (a.ty = Some (Ast.Int 4))
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "parse multiple transforms" `Quick (fun () ->
        let ts =
          Parser.parse_file
            "Name: one\n%r = add %x, 0\n=>\n%r = %x\n\nName: two\n%r = sub %x, 0\n=>\n%r = %x\n"
        in
        check_int "two transforms" 2 (List.length ts);
        check_string "first name" "one" (List.nth ts 0).name;
        check_string "second name" "two" (List.nth ts 1).name);
    Alcotest.test_case "parse comments" `Quick (fun () ->
        let t = parse "; a comment\n%r = add %x, 0 ; trailing\n=>\n%r = %x\n" in
        check_int "source stmts" 1 (List.length t.src));
    Alcotest.test_case "parse urem operator vs register" `Quick (fun () ->
        let p = Parser.parse_pred "C2 %u (1 << C1) == 0" in
        check_bool "parsed" true (p <> Ast.Ptrue));
    Alcotest.test_case "parse precedence" `Quick (fun () ->
        (* C1 + C2 * C3 parses as C1 + (C2 * C3) *)
        match Parser.parse_pred "C1 + C2 * C3 == 0" with
        | Ast.Pcmp (Ast.Peq, Ast.Cbin (Ast.Cadd, _, Ast.Cbin (Ast.Cmul, _, _)), _)
          ->
            ()
        | p -> Alcotest.failf "unexpected: %a" Ast.pp_pred p);
    Alcotest.test_case "parse parenthesized predicate" `Quick (fun () ->
        match Parser.parse_pred "(C1 == 0 || C2 == 0) && isPowerOf2(C3)" with
        | Ast.Pand (Ast.Por _, Ast.Pcall _) -> ()
        | p -> Alcotest.failf "unexpected: %a" Ast.pp_pred p);
    Alcotest.test_case "syntax error has a line number" `Quick (fun () ->
        match parse "%r = add %x,\n=>\n%r = %x\n" with
        | exception Parser.Error (_, line) -> check_int "line" 1 line
        | _ -> Alcotest.fail "expected a syntax error");
    Alcotest.test_case "pretty-print round trip" `Quick (fun () ->
        let text =
          "Name: rt\nPre: isPowerOf2(C1)\n%r = mul %x, C1\n=>\n%r = shl %x, log2(C1)\n"
        in
        let t = parse text in
        let printed = Format.asprintf "%a" Ast.pp_transform t in
        let t' = parse (printed ^ "\n") in
        check_string "name survives" t.name t'.name;
        check_int "src count" (List.length t.src) (List.length t'.src));
  ]

(* --- Scoping --- *)

let scoping_tests =
  [
    Alcotest.test_case "root mismatch rejected" `Quick (fun () ->
        let t = parse "%r = add %x, 0\n=>\n%q = %x\n" in
        check_bool "error" true (Result.is_error (Scoping.check t)));
    Alcotest.test_case "unused source temp rejected" `Quick (fun () ->
        let t = parse "%t = add %x, 1\n%r = add %x, 0\n=>\n%r = %x\n" in
        check_bool "error" true (Result.is_error (Scoping.check t)));
    Alcotest.test_case "unused target temp rejected" `Quick (fun () ->
        let t = parse "%r = add %x, 0\n=>\n%t = add %x, 1\n%r = %x\n" in
        check_bool "error" true (Result.is_error (Scoping.check t)));
    Alcotest.test_case "double definition rejected" `Quick (fun () ->
        let t = parse "%r = add %x, 0\n%r = add %x, 1\n=>\n%r = %x\n" in
        check_bool "error" true (Result.is_error (Scoping.check t)));
    Alcotest.test_case "target may overwrite source temp" `Quick (fun () ->
        let t =
          parse
            "Pre: isPowerOf2(%Power) && hasOneUse(%Y)\n%s = shl %Power, %A\n%Y = lshr %s, %B\n%r = udiv %X, %Y\n=>\n%sub = sub %A, %B\n%Y = shl %Power, %sub\n%r = udiv %X, %Y\n"
        in
        match Scoping.check t with
        | Ok info ->
            Alcotest.(check (option string)) "root" (Some "%r") info.root;
            check_bool "inputs include %X" true (List.mem "%X" info.inputs)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "inputs in first-use order" `Quick (fun () ->
        let t = parse "%a = add %y, %x\n%r = add %a, %z\n=>\n%r = %z\n" in
        match Scoping.check t with
        | Ok info ->
            Alcotest.(check (list string)) "order" [ "%y"; "%x"; "%z" ] info.inputs
        | Error e -> Alcotest.fail e);
  ]

(* --- Typing --- *)

let typing_tests =
  [
    Alcotest.test_case "polymorphic transform enumerates all widths" `Quick
      (fun () ->
        let t = parse "%r = add %x, %y\n=>\n%r = add %y, %x\n" in
        match Typing.enumerate t with
        | Ok envs -> check_int "8 widths" 8 (List.length envs)
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
    Alcotest.test_case "annotation pins the width" `Quick (fun () ->
        let t = parse "%r = add i8 %x, %y\n=>\n%r = add %y, %x\n" in
        match Typing.enumerate t with
        | Ok [ env ] ->
            check_bool "i8" true (Typing.typ_of_value env "%x" = Ast.Int 8)
        | Ok envs -> Alcotest.failf "expected 1 typing, got %d" (List.length envs)
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
    Alcotest.test_case "literal forces representable width" `Quick (fun () ->
        (* Literal 5 needs 4 bits signed: widths 4..8 remain. *)
        let t = parse "%r = add %x, 5\n=>\n%r = add %x, 5\n" in
        match Typing.enumerate t with
        | Ok envs -> check_int "5 widths" 5 (List.length envs)
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
    Alcotest.test_case "zext needs a strictly wider type" `Quick (fun () ->
        let t = parse "%r = zext i8 %x to i4\n=>\n%r = zext %x\n" in
        match Typing.enumerate t with
        | Ok [] | Error _ -> ()
        | Ok _ -> Alcotest.fail "i8 -> i4 zext should be infeasible");
    Alcotest.test_case "zext enumerates width pairs" `Quick (fun () ->
        let t = parse "%r = zext %x\n=>\n%r = zext %x\n" in
        match Typing.enumerate t with
        | Ok envs ->
            (* pairs (a, b) with a < b from a domain of 8: 28 pairs *)
            check_int "pairs" 28 (List.length envs)
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
    Alcotest.test_case "icmp result is i1" `Quick (fun () ->
        let t = parse "%r = icmp eq %x, %y\n=>\n%r = icmp eq %y, %x\n" in
        match Typing.enumerate t with
        | Ok (env :: _) ->
            check_bool "i1" true (Typing.typ_of_value env "%r" = Ast.Int 1)
        | Ok [] -> Alcotest.fail "no typing"
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
    Alcotest.test_case "width preference order" `Quick (fun () ->
        let t = parse "%r = add %x, %y\n=>\n%r = add %y, %x\n" in
        match Typing.enumerate t with
        | Ok (env :: _) ->
            check_bool "prefer i4 first" true
              (Typing.typ_of_value env "%x" = Ast.Int 4)
        | _ -> Alcotest.fail "no typing");
    Alcotest.test_case "classes groups unified names" `Quick (fun () ->
        let t = parse "%a = add %x, C\n%r = add %a, %y\n=>\n%r = %x\n" in
        match Typing.classes t with
        | Ok [ cls ] ->
            check_bool "all in one class" true
              (List.sort compare cls = List.sort compare [ "%a"; "%x"; "%y"; "%r"; "C" ])
        | Ok cs -> Alcotest.failf "expected 1 class, got %d" (List.length cs)
        | Error e -> Alcotest.failf "%a" Typing.pp_error e);
  ]

(* --- Refinement: paper examples and semantic corner cases --- *)

let refine_tests =
  [
    Alcotest.test_case "paper intro example is valid" `Quick (fun () ->
        check_bool "valid" true
          (is_valid "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x\n"));
    Alcotest.test_case "paper nsw example is valid" `Quick (fun () ->
        check_bool "valid" true
          (is_valid
             "%1 = add nsw %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true\n"));
    Alcotest.test_case "same without nsw is invalid" `Quick (fun () ->
        check_bool "invalid" false
          (is_valid "%1 = add %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true\n"));
    Alcotest.test_case "paper undef example is valid" `Quick (fun () ->
        check_bool "valid" true
          (is_valid "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3\n"));
    Alcotest.test_case "undef target needing odd values fails" `Quick (fun () ->
        (* or 1, undef yields only odd values; the all-values source cannot
           be refined by it... in fact target must refine source: source
           select undef 0 1 = {0,1}; target or 1 undef = odd only; 1 is in
           both, and the target must only produce values the source can:
           odd 8-bit values beyond 1 are not, so this must fail. *)
        check_bool "invalid" false
          (is_valid "%r = select undef, i8 0, 1\n=>\n%r = or 1, undef\n"));
    Alcotest.test_case "dropping nsw from target is valid" `Quick (fun () ->
        check_bool "valid" true
          (is_valid "%r = add nsw %x, %y\n=>\n%r = add %x, %y\n"));
    Alcotest.test_case "adding nsw to target is invalid (more poison)" `Quick
      (fun () ->
        check_bool "invalid" false
          (is_valid "%r = add %x, %y\n=>\n%r = add nsw %x, %y\n");
        Alcotest.(check (option (module struct
          type t = Counterexample.kind
          let equal = ( = )
          let pp ppf k = Format.pp_print_string ppf (Counterexample.describe k)
        end)))
          "kind is poison" (Some Counterexample.More_poison)
          (invalid_kind "%r = add %x, %y\n=>\n%r = add nsw %x, %y\n"));
    Alcotest.test_case "introducing UB is caught as definedness" `Quick
      (fun () ->
        Alcotest.(check (option (module struct
          type t = Counterexample.kind
          let equal = ( = )
          let pp ppf k = Format.pp_print_string ppf (Counterexample.describe k)
        end)))
          "kind" (Some Counterexample.Not_defined)
          (invalid_kind "%r = mul %x, 2\n=>\n%d = udiv %x, %x\n%r = mul %d, %x\n"));
    Alcotest.test_case "value bug is caught as mismatch" `Quick (fun () ->
        Alcotest.(check (option (module struct
          type t = Counterexample.kind
          let equal = ( = )
          let pp ppf k = Format.pp_print_string ppf (Counterexample.describe k)
        end)))
          "kind" (Some Counterexample.Value_mismatch)
          (invalid_kind "%r = add %x, 1\n=>\n%r = add %x, 2\n"));
    Alcotest.test_case "precondition is assumed" `Quick (fun () ->
        check_bool "valid with pre" true
          (is_valid "Pre: C == 0\n%r = add %x, C\n=>\n%r = %x\n");
        check_bool "invalid without pre" false
          (is_valid "%r = add %x, C\n=>\n%r = %x\n"));
    Alcotest.test_case "must-analysis predicates are not assumed precise"
      `Quick (fun () ->
        (* isPowerOf2 on a *value* is a may-be-unknown analysis: verification
           must hold when the analysis answers true; here the transform is
           only correct for actual powers of two, which p => fact models. *)
        check_bool "valid" true
          (is_valid
             "Pre: isPowerOf2(%p)\n%r = urem %x, %p\n=>\n%m = sub %p, 1\n%r = and %x, %m\n"));
    Alcotest.test_case "source undef is chosen per target" `Quick (fun () ->
        (* xor undef undef can be any value (two independent undefs). *)
        check_bool "valid" true
          (is_valid "%r = xor i8 undef, undef\n=>\n%r = 7\n"));
    Alcotest.test_case "division UB protects the source" `Quick (fun () ->
        (* The source is undefined at y = 0, so the target only needs to
           agree elsewhere. *)
        check_bool "valid" true
          (is_valid
             "%a = udiv %x, %y\n%r = mul %a, %y\n=>\n%u = urem %x, %y\n%r = sub %x, %u\n"));
    Alcotest.test_case "counterexample renders paper's PR21245" `Quick
      (fun () ->
        let t =
          parse
            "Pre: C2 % (1 << C1) == 0\n%s = shl nsw %X, C1\n%r = sdiv %s, C2\n=>\n%r = sdiv %X, C2 / (1 << C1)\n"
        in
        let report = Refine.render_verdict t (Refine.check t) in
        check_bool "mentions mismatch" true
          (Astring.String.is_infix ~affix:"Mismatch in values" report);
        check_bool "mentions i4 root" true
          (Astring.String.is_infix ~affix:"i4 %r" report);
        check_bool "shows source value" true
          (Astring.String.is_infix ~affix:"Source value:" report));
  ]

(* --- Attribute inference (§3.4) --- *)

let attr_tests =
  [
    Alcotest.test_case "infers nsw propagation to the target" `Quick (fun () ->
        (* -(-x) = x is valid; and with a source nsw on the inner sub, the
           outer target sub can keep nsw: (0 - (0 -nsw x)) with... simpler:
           add commutes, attributes carry over. *)
        let t = parse "%r = add nsw %x, %y\n=>\n%r = add %y, %x\n" in
        match Attr_infer.infer t with
        | Some o ->
            check_bool "target strengthened" true o.target_strengthened;
            check_bool "strongest target has nsw" true
              (List.exists
                 (fun (p : Attr_infer.position) -> p.attr = Ast.Nsw)
                 o.strongest_target)
        | None -> Alcotest.fail "inference failed");
    Alcotest.test_case "weakens a needless source attribute" `Quick (fun () ->
        (* x+0 = x holds with or without nsw on the source. *)
        let t = parse "%r = add nsw %x, 0\n=>\n%r = %x\n" in
        match Attr_infer.infer t with
        | Some o ->
            check_bool "source weakened" true o.source_weakened;
            check_bool "no source attrs needed" true (o.weakest_source = [])
        | None -> Alcotest.fail "inference failed");
    Alcotest.test_case "keeps a required source attribute" `Quick (fun () ->
        (* (x+1) > x needs nsw. *)
        let t =
          parse "%1 = add nsw %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true\n"
        in
        match Attr_infer.infer t with
        | Some o ->
            check_bool "nsw still required" true
              (List.exists
                 (fun (p : Attr_infer.position) ->
                   p.side = `Src && p.attr = Ast.Nsw)
                 o.best)
        | None -> Alcotest.fail "inference failed");
    Alcotest.test_case "unfixable transform yields None" `Quick (fun () ->
        check_bool "none" true
          (Attr_infer.infer (parse "%r = add %x, 1\n=>\n%r = add %x, 2\n")
          = None));
    Alcotest.test_case "candidate positions cover both sides" `Quick (fun () ->
        let t = parse "%r = mul %x, C\n=>\n%r = mul %x, C\n" in
        check_int "nsw+nuw on both sides" 4
          (List.length (Attr_infer.candidate_positions t)));
  ]

(* --- C++ generation (§4) --- *)

let codegen_tests =
  [
    Alcotest.test_case "fig 7 shape" `Quick (fun () ->
        let t =
          parse
            "Pre: isSignBit(C1)\n%b = xor %a, C1\n%d = add %b, C2\n=>\n%d = add %a, C1 ^ C2\n"
        in
        match Codegen.generate t with
        | Ok code ->
            List.iter
              (fun needle ->
                check_bool needle true
                  (Astring.String.is_infix ~affix:needle code))
              [
                "match(I, m_Add(m_Value(b), m_ConstantInt(C2)))";
                "match(b, m_Xor(m_Value(a), m_ConstantInt(C1)))";
                "C1->getValue().isSignBit()";
                "BinaryOperator::CreateAdd";
                "I->replaceAllUsesWith";
              ]
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "literal special cases" `Quick (fun () ->
        let t = parse "%r = xor %x, -1\n=>\n%r = sub -1, %x\n" in
        match Codegen.generate t with
        | Ok code ->
            check_bool "m_AllOnes" true
              (Astring.String.is_infix ~affix:"m_AllOnes()" code)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "repeated value uses m_Specific" `Quick (fun () ->
        let t = parse "%r = sub %x, %x\n=>\n%r = 0\n" in
        match Codegen.generate t with
        | Ok code ->
            check_bool "m_Specific" true
              (Astring.String.is_infix ~affix:"m_Specific(x)" code)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "attributes become hasNoSignedWrap checks" `Quick
      (fun () ->
        let t = parse "%r = add nsw %x, %y\n=>\n%r = add %x, %y\n" in
        match Codegen.generate t with
        | Ok code ->
            check_bool "nsw check" true
              (Astring.String.is_infix ~affix:"hasNoSignedWrap()" code)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "nsw target uses CreateNSWAdd" `Quick (fun () ->
        let t = parse "%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x\n" in
        match Codegen.generate t with
        | Ok code ->
            check_bool "CreateNSWAdd" true
              (Astring.String.is_infix ~affix:"CreateNSWAdd" code)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "whole corpus generates a pass" `Quick (fun () ->
        let transforms =
          List.filter_map
            (fun (e : Alive_suite.Entry.t) ->
              if e.expected = Alive_suite.Entry.Expect_valid then
                Some (Alive_suite.Entry.parse e)
              else None)
            Alive_suite.Registry.all
        in
        let pass = Codegen.generate_pass transforms in
        check_bool "has function header" true
          (Astring.String.is_infix ~affix:"Value *runOnInstruction" pass);
        (* Most corpus entries should generate, not be skipped. *)
        let skipped =
          List.length
            (String.split_on_char '\n' pass
            |> List.filter (fun l -> Astring.String.is_infix ~affix:"skipped" l))
        in
        check_bool "few skips" true (skipped * 5 < List.length transforms));
  ]

let width_spec_tests =
  [
    Alcotest.test_case "width specs parse or are rejected" `Quick (fun () ->
        let ok spec want =
          match Alive.Typing.parse_widths spec with
          | Ok ws -> Alcotest.(check (list int)) spec want ws
          | Error e -> Alcotest.failf "%s rejected: %s" spec e
        in
        ok "4,8" [ 4; 8 ];
        ok "1..32" (List.init 32 succ);
        ok "1..8,16,32" (List.init 8 succ @ [ 16; 32 ]);
        List.iter
          (fun spec ->
            check_bool spec true
              (Result.is_error (Alive.Typing.parse_widths spec)))
          [ "0"; "65"; "8..4"; "x" ]);
  ]

let suite =
  ( "alive-core",
    parser_tests @ scoping_tests @ typing_tests @ refine_tests @ attr_tests
    @ codegen_tests @ width_spec_tests )
