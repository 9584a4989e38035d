(* Tests for the SMT stack: term construction and folding, evaluation,
   lowering, bit-blasting (differentially against the evaluator), validity
   of known bitvector identities, and the CEGAR exists-forall loop. *)

module T = Alive_smt.Term
module Model = Alive_smt.Model
module Solve = Alive_smt.Solve
module Lower = Alive_smt.Lower

let bv width v = Bitvec.of_int ~width v
let cv width v = T.const (bv width v)

let check_bool = Alcotest.(check bool)

let value_testable =
  Alcotest.testable T.pp_value T.equal_value

(* --- Term construction and folding --- *)

let term_tests =
  [
    Alcotest.test_case "hash consing shares" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) in
        let a = T.add x (cv 8 1) and b = T.add x (cv 8 1) in
        check_bool "physically equal" true (T.equal a b));
    Alcotest.test_case "constant folding" `Quick (fun () ->
        check_bool "add" true (T.equal (T.add (cv 8 3) (cv 8 4)) (cv 8 7));
        check_bool "mul wrap" true
          (T.equal (T.mul (cv 4 7) (cv 4 3)) (cv 4 5));
        check_bool "udiv by zero" true
          (T.equal (T.udiv (cv 8 5) (cv 8 0)) (cv 8 255)));
    Alcotest.test_case "identity folding" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) in
        check_bool "x+0" true (T.equal (T.add x (T.zero 8)) x);
        check_bool "x&x" true (T.equal (T.band x x) x);
        check_bool "x^x" true (T.equal (T.bxor x x) (T.zero 8));
        check_bool "x|ones" true
          (T.equal (T.bor x (T.all_ones 8)) (T.all_ones 8));
        check_bool "x-x" true (T.equal (T.sub x x) (T.zero 8));
        check_bool "x=x" true (T.equal (T.eq x x) T.tru));
    Alcotest.test_case "boolean folding" `Quick (fun () ->
        let p = T.var "p" T.Bool in
        check_bool "and [p; true]" true (T.equal (T.and_ [ p; T.tru ]) p);
        check_bool "and [p; not p]" true
          (T.equal (T.and_ [ p; T.not_ p ]) T.fls);
        check_bool "or [p; not p]" true (T.equal (T.or_ [ p; T.not_ p ]) T.tru);
        check_bool "not not p" true (T.equal (T.not_ (T.not_ p)) p);
        check_bool "nested and flattens" true
          (T.equal
             (T.and_ [ T.and_ [ p; T.var "q" T.Bool ]; p ])
             (T.and_ [ p; T.var "q" T.Bool ])));
    Alcotest.test_case "ite folding" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 8) in
        check_bool "ite true" true (T.equal (T.ite T.tru x y) x);
        check_bool "ite same" true
          (T.equal (T.ite (T.var "p" T.Bool) x x) x));
    Alcotest.test_case "sort errors" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 4) in
        check_bool "width mismatch raises" true
          (try
             ignore (T.add x y);
             false
           with Invalid_argument _ -> true);
        check_bool "eq sort mismatch raises" true
          (try
             ignore (T.eq x (T.var "p" T.Bool));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "vars and size" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 8) in
        let t = T.add (T.mul x y) x in
        Alcotest.(check (list (pair string Alcotest.reject)))
          "ignored" [] [];
        Alcotest.(check int) "two vars" 2 (List.length (T.vars t));
        check_bool "size counts dag nodes" true (T.size t <= 4));
    Alcotest.test_case "subst folds" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) in
        let t = T.add x (cv 8 1) in
        check_bool "subst to const folds" true
          (T.equal (T.subst [ ("x", cv 8 4) ] t) (cv 8 5)));
    Alcotest.test_case "eval" `Quick (fun () ->
        let x = T.var "x" (T.Bv 8) in
        let env = function
          | "x" -> T.Vbv (bv 8 200)
          | _ -> raise Not_found
        in
        Alcotest.check value_testable "200+100 wraps" (T.Vbv (bv 8 44))
          (T.eval env (T.add x (cv 8 100)));
        Alcotest.check value_testable "slt signed" (T.Vbool true)
          (T.eval env (T.slt x (cv 8 0))));
  ]

(* --- Random term generation for differential testing --- *)

type gen_ctx = { widths : int list; nvars : int }

let gen_term ctx =
  let open QCheck2.Gen in
  let var_name i = Printf.sprintf "v%d" i in
  let leaf w =
    oneof
      [
        (let* i = int_range 0 (ctx.nvars - 1) in
         return (T.var (var_name i) (T.Bv w)));
        (let* c =
           oneof [ return 0; return 1; return (-1); int_range (-128) 128 ]
         in
         return (T.const (Bitvec.make ~width:w (Int64.of_int c))));
      ]
  in
  let rec bvterm w depth =
    if depth = 0 then leaf w
    else
      let sub = bvterm w (depth - 1) in
      oneof
        [
          leaf w;
          (let* a = sub and* b = sub in
           let* op =
             oneofl
               [
                 T.add; T.sub; T.mul; T.udiv; T.sdiv; T.urem; T.srem; T.shl;
                 T.lshr; T.ashr; T.band; T.bor; T.bxor;
               ]
           in
           return (op a b));
          (let* a = sub in
           oneofl [ T.bnot a; T.bneg a ]);
          (let* c = boolterm w (depth - 1) and* a = sub and* b = sub in
           return (T.ite c a b));
          (* Width excursion: extend, operate, truncate back. *)
          (let* a = sub and* b = sub in
           let w2 = w + 3 in
           let* ext = oneofl [ T.zext; T.sext ] in
           return (T.trunc (T.mul (ext a w2) (ext b w2)) w));
          (let* a = sub in
           if w < 2 then return a
           else
             let* hi = int_range 1 (w - 1) in
             return
               (T.concat
                  (T.extract ~hi:(w - 1) ~lo:hi a)
                  (T.extract ~hi:(hi - 1) ~lo:0 a)));
        ]
  and boolterm w depth =
    if depth = 0 then
      let* b = bool in
      return (T.bool_ b)
    else
      let sub = bvterm w (depth - 1) in
      oneof
        [
          (let* a = sub and* b = sub in
           let* op = oneofl [ T.eq; T.ult; T.ule; T.slt; T.sle; T.distinct ] in
           return (op a b));
          (let* p = boolterm w (depth - 1) and* q = boolterm w (depth - 1) in
           oneofl [ T.and_ [ p; q ]; T.or_ [ p; q ]; T.implies p q ]);
          (let* p = boolterm w (depth - 1) in
           return (T.not_ p));
        ]
  in
  let* w = oneofl ctx.widths in
  let* depth = int_range 1 4 in
  let* env =
    list_repeat ctx.nvars
      (let* c = oneof [ return 0; return 1; return (-1); int_range (-200) 200 ] in
       return (Bitvec.make ~width:w (Int64.of_int c)))
  in
  let* t = bvterm w depth in
  let bindings = List.mapi (fun i c -> (var_name i, T.Vbv c)) env in
  return (t, bindings)

let print_gen (t, bindings) =
  Format.asprintf "%a under [%s]" T.pp t
    (String.concat "; "
       (List.map
          (fun (n, v) -> Format.asprintf "%s=%a" n T.pp_value v)
          bindings))

let env_of bindings name = List.assoc name bindings

let eq_of_value t v =
  match v with
  | T.Vbv c -> T.eq t (T.const c)
  | T.Vbool true -> t
  | T.Vbool false -> T.not_ t

(* The pillar property: for a random term and a random environment, asserting
   "vars = env" pins the term to its evaluated value (UNSAT when negated,
   SAT when asserted). This differentially validates lowering + blasting +
   SAT against the direct evaluator. *)
let blast_agrees_with_eval =
  let gen = gen_term { widths = [ 1; 3; 4; 8 ]; nvars = 3 } in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"bitblast agrees with eval" ~print:print_gen
       gen (fun (t, bindings) ->
         let result = T.eval (env_of bindings) t in
         let pins =
           List.map
             (fun (n, v) ->
               match v with
               | T.Vbv c -> T.eq (T.var n (T.Bv (Bitvec.width c))) (T.const c)
               | T.Vbool b -> eq_of_value (T.var n T.Bool) (T.Vbool b))
             bindings
         in
         let positive = Solve.check_sat (eq_of_value t result :: pins) in
         let negative =
           Solve.check_sat (T.not_ (eq_of_value t result) :: pins)
         in
         (match positive with
         | Solve.Sat _ -> true
         | Solve.Unsat | Solve.Unknown _ -> false)
         &&
         match negative with
         | Solve.Unsat -> true
         | Solve.Sat _ | Solve.Unknown _ -> false))

(* Lowering must preserve evaluation. *)
let lower_preserves_eval =
  let gen = gen_term { widths = [ 1; 4; 7 ]; nvars = 3 } in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"lowering preserves eval"
       ~print:print_gen gen (fun (t, bindings) ->
         T.equal_value
           (T.eval (env_of bindings) t)
           (T.eval (env_of bindings) (Lower.lower t))))

(* Models returned by check_sat must satisfy the formula. *)
let models_satisfy =
  let gen = gen_term { widths = [ 4 ]; nvars = 2 } in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"sat models satisfy the formula"
       ~print:print_gen gen (fun (t, _bindings) ->
         let f =
           match T.sort t with
           | T.Bool -> t
           | T.Bv _ -> T.ult t (T.var "bound" (T.Bv (T.width t)))
         in
         match Solve.check_sat [ f ] with
         | Solve.Unsat -> true
         | Solve.Sat m -> Model.holds m f
         | Solve.Unknown _ -> false))

(* --- Validity of textbook identities, through the full stack --- *)

let valid f = check_bool "valid" true (Solve.is_valid f = `Valid)

let invalid f =
  match Solve.is_valid f with
  | `Valid -> Alcotest.fail "expected a counterexample"
  | `Unknown _ -> Alcotest.fail "unbudgeted query reported unknown"
  | `Invalid m -> check_bool "counterexample refutes" false (Model.holds m f)

let x8 = T.var "x" (T.Bv 8)
let y8 = T.var "y" (T.Bv 8)
let z8 = T.var "z" (T.Bv 8)

let validity_tests =
  [
    Alcotest.test_case "add commutes" `Quick (fun () ->
        valid (T.eq (T.add x8 y8) (T.add y8 x8)));
    Alcotest.test_case "add associates" `Quick (fun () ->
        valid (T.eq (T.add (T.add x8 y8) z8) (T.add x8 (T.add y8 z8))));
    Alcotest.test_case "sub as neg-add" `Quick (fun () ->
        valid (T.eq (T.sub x8 y8) (T.add x8 (T.bneg y8))));
    Alcotest.test_case "mul by 2 is shl 1" `Quick (fun () ->
        valid (T.eq (T.mul x8 (cv 8 2)) (T.shl x8 (cv 8 1))));
    Alcotest.test_case "mul commutes" `Quick (fun () ->
        valid (T.eq (T.mul x8 y8) (T.mul y8 x8)));
    Alcotest.test_case "de morgan bitwise" `Quick (fun () ->
        valid (T.eq (T.bnot (T.band x8 y8)) (T.bor (T.bnot x8) (T.bnot y8))));
    Alcotest.test_case "xor via and-or" `Quick (fun () ->
        valid
          (T.eq (T.bxor x8 y8)
             (T.band (T.bor x8 y8) (T.bnot (T.band x8 y8)))));
    Alcotest.test_case "udiv-urem reconstruction" `Quick (fun () ->
        valid
          (T.implies
             (T.distinct y8 (T.zero 8))
             (T.eq x8 (T.add (T.mul (T.udiv x8 y8) y8) (T.urem x8 y8)))));
    Alcotest.test_case "sdiv INT_MIN -1 wraps" `Quick (fun () ->
        valid
          (T.eq
             (T.sdiv (T.const (Bitvec.min_signed 8)) (T.all_ones 8))
             (T.const (Bitvec.min_signed 8))));
    Alcotest.test_case "srem sign" `Quick (fun () ->
        valid
          (T.implies
             (T.and_ [ T.distinct y8 (T.zero 8); T.sge x8 (T.zero 8) ])
             (T.sge (T.srem x8 y8) (T.zero 8))));
    Alcotest.test_case "variable shl matches mul by power" `Quick (fun () ->
        valid
          (T.implies
             (T.ult y8 (cv 8 8))
             (T.eq (T.shl x8 y8) (T.mul x8 (T.shl (T.one 8) y8)))));
    Alcotest.test_case "over-shift yields zero" `Quick (fun () ->
        valid (T.implies (T.uge y8 (cv 8 8)) (T.eq (T.shl x8 y8) (T.zero 8))));
    Alcotest.test_case "ashr on nonneg equals lshr" `Quick (fun () ->
        valid
          (T.implies (T.sge x8 (T.zero 8)) (T.eq (T.ashr x8 y8) (T.lshr x8 y8))));
    Alcotest.test_case "slt via sign flip" `Quick (fun () ->
        valid
          (T.iff (T.slt x8 y8)
             (T.ult
                (T.bxor x8 (T.const (Bitvec.min_signed 8)))
                (T.bxor y8 (T.const (Bitvec.min_signed 8))))));
    Alcotest.test_case "zext then trunc is identity" `Quick (fun () ->
        valid (T.eq (T.trunc (T.zext x8 12) 8) x8));
    Alcotest.test_case "sext preserves slt" `Quick (fun () ->
        valid (T.iff (T.slt x8 y8) (T.slt (T.sext x8 16) (T.sext y8 16))));
    Alcotest.test_case "overflow predicate matches wide add" `Quick (fun () ->
        valid
          (T.iff
             (T.add_overflows_unsigned x8 y8)
             (T.ult (T.add x8 y8) x8)));
    Alcotest.test_case "invalid: x - 1 < x unsigned" `Quick (fun () ->
        invalid (T.ult (T.sub x8 (T.one 8)) x8));
    Alcotest.test_case "invalid: sdiv negates as udiv" `Quick (fun () ->
        invalid (T.eq (T.sdiv x8 y8) (T.udiv x8 y8)));
    Alcotest.test_case "invalid: x+1 > x signed" `Quick (fun () ->
        invalid (T.sgt (T.add x8 (T.one 8)) x8));
  ]

(* --- CEGAR exists-forall --- *)

let ef_tests =
  [
    Alcotest.test_case "exists u. u = x" `Quick (fun () ->
        let u = T.var "u" (T.Bv 4) and x = T.var "x" (T.Bv 4) in
        check_bool "valid" true
          (Solve.check_valid_ef ~exists:[ ("u", T.Bv 4) ] (T.eq u x) = `Valid));
    Alcotest.test_case "exists u. u+u = x is refutable" `Quick (fun () ->
        let u = T.var "u" (T.Bv 4) and x = T.var "x" (T.Bv 4) in
        match
          Solve.check_valid_ef ~exists:[ ("u", T.Bv 4) ] (T.eq (T.add u u) x)
        with
        | `Valid -> Alcotest.fail "u+u can only be even"
        | `Unknown _ -> Alcotest.fail "unbudgeted query reported unknown"
        | `Invalid m -> (
            match Model.find_exn m "x" with
            | T.Vbv c -> check_bool "x odd" true (Bitvec.bit c 0)
            | T.Vbool _ -> Alcotest.fail "bad model"));
    Alcotest.test_case "exists u. x & u = 0" `Quick (fun () ->
        let u = T.var "u" (T.Bv 4) and x = T.var "x" (T.Bv 4) in
        check_bool "valid (pick u=0)" true
          (Solve.check_valid_ef ~exists:[ ("u", T.Bv 4) ]
             (T.eq (T.band x u) (T.zero 4))
          = `Valid));
    Alcotest.test_case "paper fig: select undef refines ashr undef" `Quick
      (fun () ->
        (* %r = select undef, -1, 0  =>  %r = ashr undef, 3  at i4:
           forall u2 exists u1: ite(u1, -1, 0) = ashr u2 3. *)
        let u1 = T.var "u1" T.Bool and u2 = T.var "u2" (T.Bv 4) in
        let src = T.ite u1 (T.all_ones 4) (T.zero 4) in
        let tgt = T.ashr u2 (cv 4 3) in
        check_bool "refinement holds" true
          (Solve.check_valid_ef ~exists:[ ("u1", T.Bool) ] (T.eq src tgt)
          = `Valid));
    Alcotest.test_case "reverse direction fails" `Quick (fun () ->
        (* ashr u2 3 only yields 0000/1111 at i4 from the *top* bit; with u2
           existential it can still hit both values, but a target of
           "u2 lshr 3 = 1..1" cannot be matched when the source demands -1
           via an odd pattern. Use a genuinely failing refinement:
           src = select undef, 1, 2 (yields 1 or 2);
           tgt = ashr undef, 3 (yields 0 or -1): no overlap for value 1? It
           must hold for ALL target undefs, and 0 is reachable by neither 1
           nor 2, so it fails. *)
        let u1 = T.var "u1" T.Bool and u2 = T.var "u2" (T.Bv 4) in
        let src = T.ite u1 (cv 4 1) (cv 4 2) in
        let tgt = T.ashr u2 (cv 4 3) in
        match Solve.check_valid_ef ~exists:[ ("u1", T.Bool) ] (T.eq src tgt) with
        | `Valid -> Alcotest.fail "should be refuted"
        | `Unknown _ -> Alcotest.fail "unbudgeted query reported unknown"
        | `Invalid m -> (
            match Model.find_exn m "u2" with
            | T.Vbv c ->
                (* Any u2 works as witness since src never equals 0 or -1;
                   just check the binding exists and has the right width. *)
                Alcotest.(check int) "witness width" 4 (Bitvec.width c)
            | T.Vbool _ -> Alcotest.fail "bad model"));
    Alcotest.test_case "no existentials degenerates to validity" `Quick
      (fun () ->
        check_bool "valid" true
          (Solve.check_valid_ef ~exists:[] (T.eq (T.add x8 y8) (T.add y8 x8))
          = `Valid));
    Alcotest.test_case "multi-var exists" `Quick (fun () ->
        (* forall x exists u v: u + v = x /\ u <= x unsigned. Pick u=0,v=x. *)
        let u = T.var "u" (T.Bv 4)
        and v = T.var "v" (T.Bv 4)
        and x = T.var "x" (T.Bv 4) in
        check_bool "valid" true
          (Solve.check_valid_ef
             ~exists:[ ("u", T.Bv 4); ("v", T.Bv 4) ]
             (T.and_ [ T.eq (T.add u v) x; T.ule u x ])
          = `Valid));
  ]

(* --- Canonical renaming and the verdict cache --- *)

module Vc_cache = Alive_smt.Vc_cache

let canon_tests =
  [
    Alcotest.test_case "alpha-equivalent terms canonicalize equal" `Quick
      (fun () ->
        (* Non-commutative operators, so the formula neither folds away nor
           gets its operands reordered by the smart constructors. *)
        let f a b = T.ult (T.sub a b) (T.udiv a b) in
        let c1, m1 = T.canonicalize (f (T.var "x" (T.Bv 8)) (T.var "y" (T.Bv 8)))
        and c2, m2 = T.canonicalize (f (T.var "p" (T.Bv 8)) (T.var "q" (T.Bv 8))) in
        check_bool "same canonical term" true (T.equal c1 c2);
        Alcotest.(check (list (pair string string)))
          "mapping in first-occurrence order"
          [ ("x", "!c0"); ("y", "!c1") ]
          m1;
        Alcotest.(check (list (pair string string)))
          "second mapping mirrors the first"
          [ ("p", "!c0"); ("q", "!c1") ]
          m2);
    Alcotest.test_case "different widths stay distinct" `Quick (fun () ->
        let f w = T.eq (T.var "x" (T.Bv w)) (T.zero w) in
        let c8, _ = T.canonicalize (f 8) and c16, _ = T.canonicalize (f 16) in
        check_bool "not the same canonical term" false (T.equal c8 c16));
    Alcotest.test_case "occurrence order matters, names do not" `Quick
      (fun () ->
        (* sub is not commutative: x - y and y - x canonicalize to the same
           term (!c0 - !c1 both times), which is exactly right — the cache
           key abstracts names, not structure. *)
        let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 8) in
        let c1, _ = T.canonicalize (T.sub x y)
        and c2, _ = T.canonicalize (T.sub y x) in
        check_bool "alpha-equivalent up to renaming" true (T.equal c1 c2));
  ]

let vc_cache_tests =
  let with_fresh_cache f =
    Vc_cache.clear ();
    Fun.protect ~finally:(fun () -> Vc_cache.clear ()) f
  in
  let tl = Solve.telemetry () in
  let find = Vc_cache.find ~telemetry:tl in
  let store = Vc_cache.store ~telemetry:tl in
  [
    Alcotest.test_case "alpha-equivalent queries share an entry" `Quick
      (fun () ->
        with_fresh_cache (fun () ->
            let q name = T.eq (T.var name (T.Bv 8)) (cv 8 7) in
            let k1 = Vc_cache.canon ~exists:[] (q "x") in
            check_bool "cold miss" true (find k1 = None);
            store k1 `Valid;
            let k2 = Vc_cache.canon ~exists:[] (q "y") in
            check_bool "alpha-equivalent hit" true
              (find k2 = Some (`Valid, Vc_cache.Memory));
            let k16 =
              Vc_cache.canon ~exists:[] (T.eq (T.var "x" (T.Bv 16)) (cv 16 7))
            in
            check_bool "same pattern at another width misses" true
              (find k16 = None)));
    Alcotest.test_case "models are renamed through the cache" `Quick
      (fun () ->
        with_fresh_cache (fun () ->
            let q a b = T.and_ [ T.ult a b; T.eq b (cv 8 9) ] in
            let k1 =
              Vc_cache.canon ~exists:[]
                (q (T.var "lo" (T.Bv 8)) (T.var "hi" (T.Bv 8)))
            in
            let model =
              Model.of_list
                [ ("lo", T.Vbv (bv 8 3)); ("hi", T.Vbv (bv 8 9)) ]
            in
            store k1 (`Invalid model);
            let k2 =
              Vc_cache.canon ~exists:[]
                (q (T.var "a" (T.Bv 8)) (T.var "b" (T.Bv 8)))
            in
            match find k2 with
            | Some (`Invalid m, _) ->
                Alcotest.(check (option value_testable))
                  "lo renamed to a" (Some (T.Vbv (bv 8 3))) (Model.find m "a");
                Alcotest.(check (option value_testable))
                  "hi renamed to b" (Some (T.Vbv (bv 8 9))) (Model.find m "b")
            | _ -> Alcotest.fail "expected a renamed Invalid hit"));
    Alcotest.test_case "existential variable set is part of the key" `Quick
      (fun () ->
        with_fresh_cache (fun () ->
            let f = T.eq (T.var "u" (T.Bv 8)) (T.var "x" (T.Bv 8)) in
            let k_ef = Vc_cache.canon ~exists:[ ("u", T.Bv 8) ] f in
            store k_ef `Valid;
            let k_all = Vc_cache.canon ~exists:[] f in
            check_bool "pure-forall query does not hit the EF entry" true
              (find k_all = None)));
    Alcotest.test_case "FIFO eviction at capacity" `Quick (fun () ->
        with_fresh_cache (fun () ->
            Fun.protect
              ~finally:(fun () -> Vc_cache.set_capacity 8192)
              (fun () ->
                Vc_cache.set_capacity 2;
                let key i =
                  Vc_cache.canon ~exists:[]
                    (T.eq (T.var "x" (T.Bv 8)) (cv 8 i))
                in
                let evicted = tl.cache_evictions in
                store (key 1) `Valid;
                store (key 2) `Valid;
                Alcotest.(check int) "no eviction" evicted tl.cache_evictions;
                store (key 3) `Valid;
                Alcotest.(check int) "oldest evicted" (evicted + 1)
                  tl.cache_evictions;
                check_bool "first entry gone" true (find (key 1) = None);
                check_bool "newest entries live" true
                  (find (key 2) = Some (`Valid, Vc_cache.Memory)
                  && find (key 3) = Some (`Valid, Vc_cache.Memory)))));
    Alcotest.test_case "adopting a store hit counts its eviction" `Quick
      (fun () ->
        with_fresh_cache (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Vc_cache.set_capacity 8192;
                Vc_cache.set_backing None)
              (fun () ->
                Vc_cache.set_capacity 1;
                let key i =
                  Vc_cache.canon ~exists:[]
                    (T.eq (T.var "x" (T.Bv 8)) (cv 8 i))
                in
                let t = Solve.telemetry () in
                Vc_cache.store ~telemetry:t (key 1) `Valid;
                Vc_cache.set_backing
                  (Some
                     {
                       Vc_cache.lookup = (fun _ -> Some `Valid);
                       publish = (fun _ ~cost:_ _ -> ());
                     });
                check_bool "store hit" true
                  (Vc_cache.find ~telemetry:t (key 2)
                  = Some (`Valid, Vc_cache.Backing));
                Alcotest.(check int) "store hit counted" 1 t.store_hits;
                Alcotest.(check int) "adoption evicted the oldest entry" 1
                  t.cache_evictions)));
  ]

(* [Solve] evaluates every model against its formula before returning it,
   but [Term.eval] stops at 64 bits. The overflow check of an i33
   multiply compares 66-bit products, so its model must come back
   unchecked rather than failing inside the evaluator. *)
let wide_model_unchecked =
  Alcotest.test_case "models of formulas wider than 64 bits come back"
    `Quick (fun () ->
      let x = T.var "x" (T.Bv 33) and y = T.var "y" (T.Bv 33) in
      match Solve.check_sat [ T.mul_overflows_unsigned x y ] with
      | Solve.Sat m ->
          check_bool "the model binds both operands" true
            (Model.find m "x" <> None && Model.find m "y" <> None)
      | _ -> Alcotest.fail "an i33 multiply can overflow")

let suite =
  ( "smt",
    term_tests @ validity_tests @ ef_tests @ canon_tests @ vc_cache_tests
    @ [
        blast_agrees_with_eval;
        lower_preserves_eval;
        models_satisfy;
        wide_model_unchecked;
      ] )
