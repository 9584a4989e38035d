(* Tests for lib/core/constlang.ml: the one definition of Alive's constant
   expressions and predicates, read over the three algebras of
   lib/ir/semantics.ml. The algebras must
   agree on every primitive (bit-vectors, the abstract domain on
   singletons, SMT terms under evaluation), the abstract algebra must be
   sound on arbitrary abstract operands, and the concrete reading of every
   corpus precondition and inference atom must equal the precise term
   reading — the property inference's example labels rest on. *)

open Alive.Ast
module C = Alive.Constlang
module B = Semantics.Bitvec_algebra
module Tm = C.Term_algebra
module T = Alive_smt.Term
module Dom = Alive_absint.Domain

module D = Alive_absint.Domain_algebra.Full

let widths = [ 1; 4; 8; 33; 63; 64 ]

let rand_bv st w = Bitvec.make ~width:w (Random.State.bits64 st)

(* Boundary values plus random ones. *)
let samples st w =
  List.sort_uniq Bitvec.compare
    ([ Bitvec.zero w; Bitvec.one w; Bitvec.all_ones w; Bitvec.min_signed w;
       Bitvec.max_signed w; Bitvec.of_int ~width:w 2 ]
    @ List.init 6 (fun _ -> rand_bv st w))

let binops =
  Ir.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; Shl; Lshr; Ashr; And; Or; Xor ]

let overflows =
  List.concat_map (fun op -> [ (op, true); (op, false) ]) [ `Add; `Sub; `Mul ]

(* The overflow encodings compare at w+1 (2w for mul) bits, which
   [Term.eval] cannot represent past 64. *)
let term_evaluable op ~signed w =
  match (op, signed) with
  | `Sub, false -> true
  | `Mul, _ -> 2 * w <= Bitvec.max_width
  | _ -> w + 1 <= Bitvec.max_width

let show = Bitvec.to_string_hex

(* ---- Every primitive, three algebras ---- *)

let x_var w = T.var "x" (T.Bv w)
let y_var w = T.var "y" (T.Bv w)

let eval_term x y t =
  T.eval
    (function
      | "x" -> T.Vbv x
      | "y" -> T.Vbv y
      | n -> Alcotest.failf "unexpected variable %s" n)
    t

let check_value what w x y (bv : Bitvec.t) (dom : Dom.t) (term : T.t option) =
  (match Dom.is_singleton dom with
  | Some d when Bitvec.equal d bv -> ()
  | _ ->
      Alcotest.failf "%s i%d on %s, %s: domain is not the singleton %s" what w
        (show x) (show y) (show bv));
  match term with
  | None -> ()
  | Some t -> (
      match eval_term x y t with
      | T.Vbv v when Bitvec.equal v bv -> ()
      | _ ->
          Alcotest.failf "%s i%d on %s, %s: term disagrees with %s" what w
            (show x) (show y) (show bv))

let check_truth what w x y (b : bool) (tri : Dom.tribool) (term : T.t option) =
  if tri <> Dom.tri_of_bool b then
    Alcotest.failf "%s i%d on %s, %s: domain disagrees with %b" what w (show x)
      (show y) b;
  match term with
  | None -> ()
  | Some t ->
      if eval_term x y t <> T.Vbool b then
        Alcotest.failf "%s i%d on %s, %s: term disagrees with %b" what w
          (show x) (show y) b

let test_primitives () =
  let st = Random.State.make [| 0xc0de |] in
  List.iter
    (fun w ->
      let xs = samples st w in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let dx = Dom.singleton x and dy = Dom.singleton y in
              let tx = x_var w and ty = y_var w in
              let value what fb fd ft =
                check_value what w x y (fb x y) (fd dx dy) (Some (ft tx ty))
              and truth ?(evaluable = true) what fb fd ft =
                check_truth what w x y (fb x y) (fd dx dy)
                  (if evaluable then Some (ft tx ty) else None)
              in
              List.iter
                (fun op ->
                  value
                    (Ir.binop_name op)
                    (B.binop op) (D.binop op) (Tm.binop op))
                binops;
              value "bnot" (fun x _ -> B.bnot x) (fun x _ -> D.bnot x)
                (fun x _ -> Tm.bnot x);
              value "neg" (fun x _ -> B.neg x) (fun x _ -> D.neg x)
                (fun x _ -> Tm.neg x);
              List.iter
                (fun (hi, lo) ->
                  if hi < w then
                    value
                      (Printf.sprintf "extract %d:%d" hi lo)
                      (fun x _ -> B.extract ~hi ~lo x)
                      (fun x _ -> D.extract ~hi ~lo x)
                      (fun x _ -> Tm.extract ~hi ~lo x))
                [ (0, 0); (w - 1, w - 1); (w - 1, 0); (w / 2, w / 3) ];
              truth "eq" B.eq D.eq Tm.eq;
              truth "ult" B.ult D.ult Tm.ult;
              truth "slt" B.slt D.slt Tm.slt;
              List.iter
                (fun c ->
                  let tc = if c then Tm.tru else Tm.not_ Tm.tru in
                  let dc = if c then D.tru else D.not_ D.tru in
                  value
                    (Printf.sprintf "ite %b" c)
                    (B.ite c) (D.ite dc) (Tm.ite tc))
                [ true; false ];
              truth "isPowerOf2" (fun x _ -> B.is_power_of_two x)
                (fun x _ -> D.is_power_of_two x)
                (fun x _ -> Tm.is_power_of_two x);
              truth "isPowerOf2OrZero"
                (fun x _ -> B.is_power_of_two_or_zero x)
                (fun x _ -> D.is_power_of_two_or_zero x)
                (fun x _ -> Tm.is_power_of_two_or_zero x);
              List.iter
                (fun (op, signed) ->
                  truth
                    ~evaluable:(term_evaluable op ~signed w)
                    (Printf.sprintf "overflows %s signed=%b"
                       (match op with `Add -> "add" | `Sub -> "sub" | `Mul -> "mul")
                       signed)
                    (B.overflows op ~signed) (D.overflows op ~signed)
                    (Tm.overflows op ~signed))
                overflows)
            xs)
        xs)
    widths;
  (* The boolean connectives, over every pair of truth values. *)
  let p = T.var "p" T.Bool and q = T.var "q" T.Bool in
  List.iter
    (fun (a, b) ->
      let eval t = T.eval (function "p" -> T.Vbool a | _ -> T.Vbool b) t in
      let da = Dom.tri_of_bool a and db = Dom.tri_of_bool b in
      let check what bv dv tv =
        if dv <> Dom.tri_of_bool bv || eval tv <> T.Vbool bv then
          Alcotest.failf "%s on %b, %b disagrees" what a b
      in
      check "and" (B.and_ [ a; b ]) (D.and_ [ da; db ]) (Tm.and_ [ p; q ]);
      check "or" (B.or_ [ a; b ]) (D.or_ [ da; db ]) (Tm.or_ [ p; q ]);
      check "not" (B.not_ a) (D.not_ da) (Tm.not_ p))
    [ (true, true); (true, false); (false, true); (false, false) ]

(* ---- The abstract algebra is sound ---- *)

(* An abstract value with members it must contain: a singleton, a join of
   a few values, or an unsigned or signed range through two values. *)
let rand_domain st w =
  let a = rand_bv st w and b = rand_bv st w in
  match Random.State.int st 5 with
  | 0 -> (Dom.singleton a, [ a ])
  | 1 ->
      let c = rand_bv st w in
      (Dom.join (Dom.join (Dom.singleton a) (Dom.singleton b)) (Dom.singleton c),
       [ a; b; c ])
  | 2 -> (Dom.range w (Bitvec.umin a b) (Bitvec.umax a b), [ a; b ])
  | 3 -> (Dom.srange w (Bitvec.smin a b) (Bitvec.smax a b), [ a; b ])
  | _ -> (Dom.top w, [ a; b ])

let test_abstract_sound () =
  let st = Random.State.make [| 0xab5 |] in
  List.iter
    (fun w ->
      for _ = 1 to 150 do
        let da, xs = rand_domain st w and db, ys = rand_domain st w in
        List.iter
          (fun x ->
            List.iter
              (fun y ->
                let value what (d : Dom.t) c =
                  if not (Dom.contains d c) then
                    Alcotest.failf "%s i%d: %s on %s, %s escapes" what w
                      (show c) (show x) (show y)
                and truth what (tri : Dom.tribool) b =
                  if tri <> Dom.Unknown && tri <> Dom.tri_of_bool b then
                    Alcotest.failf "%s i%d: unsound on %s, %s" what w (show x)
                      (show y)
                in
                List.iter
                  (fun op ->
                    value "binop" (D.binop op da db) (B.binop op x y))
                  binops;
                value "bnot" (D.bnot da) (B.bnot x);
                value "neg" (D.neg da) (B.neg x);
                value "extract" (D.extract ~hi:(w - 1) ~lo:(w / 2) da)
                  (B.extract ~hi:(w - 1) ~lo:(w / 2) x);
                truth "eq" (D.eq da db) (B.eq x y);
                truth "ult" (D.ult da db) (B.ult x y);
                truth "slt" (D.slt da db) (B.slt x y);
                let c = D.ult da db in
                value "ite" (D.ite c da db) (B.ite (B.ult x y) x y);
                truth "isPowerOf2" (D.is_power_of_two da) (B.is_power_of_two x);
                truth "isPowerOf2OrZero" (D.is_power_of_two_or_zero da)
                  (B.is_power_of_two_or_zero x);
                List.iter
                  (fun (op, signed) ->
                    truth "overflows" (D.overflows op ~signed da db)
                      (B.overflows op ~signed x y))
                  overflows)
              ys)
          xs
      done)
    widths

(* ---- Concrete reading = precise term reading, corpus-wide ---- *)

let typing t =
  match Alive.Typing.enumerate ~widths:[ 4 ] t with
  | Ok (env :: _) -> Some env
  | Ok [] | Error _ -> None

(* Evaluate [preds] both ways over a grid of bindings of [t]'s inputs and
   constants; both readings must fail together or give the same answer.
   Returns the number of comparisons made. *)
let agree_on_grid (t : transform) preds =
  match (Alive.Scoping.check t, typing t) with
  | Error _, _ | _, None -> 0
  | Ok info, Some env ->
      let names =
        List.map
          (fun n -> (n, Alive.Typing.width_of_value env n))
          (info.inputs @ info.constants)
      in
      let lookup n =
        Alive.Vcgen.input_var n (Alive.Typing.width_of_value env n)
      in
      let terms =
        List.map
          (fun p ->
            (p, try Some (Alive.Vcgen.pred_term_precise env ~lookup p) with _ -> None))
          preds
      in
      let values w =
        [ Bitvec.zero w; Bitvec.one w; Bitvec.all_ones w; Bitvec.min_signed w;
          Bitvec.of_int ~width:w 5 ]
      in
      let rec grids = function
        | [] -> [ [] ]
        | (n, w) :: rest ->
            let tails = grids rest in
            List.concat_map
              (fun v -> List.map (fun tl -> (n, v) :: tl) tails)
              (values w)
      in
      let checked = ref 0 in
      List.iter
        (fun binds ->
          let model =
            Alive_smt.Model.of_list
              (List.map (fun (n, v) -> (n, T.Vbv v)) binds)
          in
          List.iter
            (fun (p, term) ->
              let concrete =
                try Some (Alive_infer.Concrete.eval_pred env ~binds p)
                with _ -> None
              in
              let smt =
                match term with
                | None -> None
                | Some term -> (
                    try Some (Alive_smt.Model.holds model term) with _ -> None)
              in
              match (concrete, smt) with
              | Some c, Some s when c = s -> incr checked
              | None, None -> ()
              | _ ->
                  Alcotest.failf "%s: %s: concrete=%s smt=%s on {%s}" t.name
                    (Format.asprintf "%a" pp_pred p)
                    (match concrete with Some c -> string_of_bool c | None -> "error")
                    (match smt with Some s -> string_of_bool s | None -> "error")
                    (String.concat "; "
                       (List.map
                          (fun (n, v) -> n ^ "=" ^ Bitvec.to_string_unsigned v)
                          binds)))
            terms)
        (grids names);
      !checked

let test_corpus_readings () =
  let entries = Alive_suite.Registry.all in
  let with_pre =
    List.filter_map
      (fun e ->
        let t = Alive_suite.Entry.parse e in
        if t.pre = Ptrue then None else Some t)
      entries
  in
  let compared =
    List.filter (fun (t : transform) -> agree_on_grid t [ t.pre ] > 0) with_pre
  in
  Alcotest.(check int) "every corpus precondition was compared"
    (List.length with_pre) (List.length compared);
  let vocabulary_of name =
    match Alive_suite.Registry.find name with
    | None -> Alcotest.failf "no corpus entry %s" name
    | Some e -> (
        let t = Alive_suite.Entry.parse e in
        match Alive.Scoping.check t with
        | Ok info -> agree_on_grid t (Alive_infer.Atoms.vocabulary t info)
        | Error m -> Alcotest.fail m)
  in
  let atoms_checked =
    List.fold_left
      (fun acc name -> acc + vocabulary_of name)
      0
      [ "AndOrXor:fig2-masked-or"; "Shifts:shl-shl-accumulate";
        "MulDivRem:udiv-udiv-reassoc"; "AddSub:PR20186-fixed" ]
  in
  Alcotest.(check bool) "enough atom evaluations were comparable" true
    (atoms_checked > 10_000)

let suite =
  ( "constlang",
    [
      Alcotest.test_case "primitives agree across the three algebras" `Quick
        test_primitives;
      Alcotest.test_case "abstract algebra is sound" `Quick test_abstract_sound;
      Alcotest.test_case "concrete reading equals the precise term reading"
        `Quick test_corpus_readings;
    ] )
