(* Tests for lib/ir/semantics.ml, the one meaning of the integer
   instructions, exhaustively at small widths. The bit-vector instance (the
   interpreter's and the constant folder's) and the term instance (the VC
   generator's, read through [Model.holds]) agree on value, definedness and
   poison-freedom for every input, operand taint included; the
   reduced-product instance (the optimizer's and lint's) contains the
   concrete value on every defined input, and its definedness never
   contradicts a member's. *)

module T = Alive_smt.Term
module Model = Alive_smt.Model
module Dom = Alive_absint.Domain
module B = Semantics.Make (Semantics.Bitvec_algebra)
module Tm = Semantics.Make (Alive.Constlang.Term_algebra)
module D = Semantics.Make (Alive_absint.Domain_algebra.Full)

let all w = List.init (1 lsl w) (Bitvec.of_int ~width:w)
let show = Bitvec.to_string_signed

let binops =
  Ir.[ Add; Sub; Mul; Udiv; Sdiv; Urem; Srem; Shl; Lshr; Ashr; And; Or; Xor ]

let conds = Ir.[ Eq; Ne; Ugt; Uge; Ult; Ule; Sgt; Sge; Slt; Sle ]

(* Every subset of the attributes the opcode takes. *)
let attr_subsets op =
  List.fold_left
    (fun subsets a ->
      if Ir.takes_attr op a then subsets @ List.map (fun s -> s @ [ a ]) subsets
      else subsets)
    [ [] ]
    Ir.[ Nsw; Nuw; Exact ]

let casts = Ir.[ (Zext, 2, 3); (Zext, 2, 4); (Zext, 3, 4); (Sext, 2, 3);
                 (Sext, 2, 4); (Sext, 3, 4); (Trunc, 4, 2); (Trunc, 4, 3);
                 (Trunc, 3, 2) ]

(* ---- Bit-vectors against terms ---- *)

(* An operand named [n]: its value and its two flags are variables. *)
let term_operand n w =
  {
    Semantics.value = T.var n (T.Bv w);
    defined = T.var (n ^ ".defined") T.Bool;
    poison_free = T.var (n ^ ".poison_free") T.Bool;
  }

(* The flags cycle through all four combinations as the inputs advance, so
   every combination meets many values. *)
let flags k = (k land 1 = 0, k land 2 = 0)

let bitvec_operand k v =
  let defined, poison_free = flags k in
  { Semantics.value = v; defined; poison_free }

let bindings n k v =
  let defined, poison_free = flags k in
  [ (n, T.Vbv v); (n ^ ".defined", T.Vbool defined);
    (n ^ ".poison_free", T.Vbool poison_free) ]

let agree what (b : (Bitvec.t, bool) Semantics.ival)
    (t : (T.t, T.t) Semantics.ival) binds =
  let m = Model.of_list binds in
  let inputs =
    String.concat ", "
      (List.map
         (fun (n, v) ->
           n ^ "="
           ^ match v with T.Vbv v -> show v | T.Vbool b -> string_of_bool b)
         binds)
  in
  if not (Model.holds m (T.eq t.value (T.const b.value))) then
    Alcotest.failf "%s on %s: term value differs from %s" what inputs
      (show b.value);
  if Model.holds m t.defined <> b.defined then
    Alcotest.failf "%s on %s: definedness differs (bit-vectors say %b)" what
      inputs b.defined;
  if Model.holds m t.poison_free <> b.poison_free then
    Alcotest.failf "%s on %s: poison-freedom differs (bit-vectors say %b)" what
      inputs b.poison_free

(* Each pair of operands, with the flag combination its position picks. *)
let pairs xs ys =
  List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs
  |> List.mapi (fun k (x, y) -> (k, x, y))

let test_binops () =
  let w = 4 in
  let ta = term_operand "a" w and tb = term_operand "b" w in
  List.iter
    (fun op ->
      List.iter
        (fun attrs ->
          let what =
            String.concat " " (Ir.binop_name op :: List.map Ir.attr_name attrs)
          in
          let t = Tm.Inst.binop op attrs ta tb in
          List.iter
            (fun (k, x, y) ->
              let b =
                B.Inst.binop op attrs (bitvec_operand k x)
                  (bitvec_operand (k / 4) y)
              in
              agree what b t (bindings "a" k x @ bindings "b" (k / 4) y))
            (pairs (all w) (all w)))
        (attr_subsets op))
    binops

let test_icmp_select () =
  let w = 4 in
  let ta = term_operand "a" w and tb = term_operand "b" w in
  List.iter
    (fun c ->
      let t = Tm.Inst.icmp c ta tb in
      List.iter
        (fun (k, x, y) ->
          let b =
            B.Inst.icmp c (bitvec_operand k x) (bitvec_operand (k / 4) y)
          in
          agree ("icmp " ^ Ir.cond_name c) b t
            (bindings "a" k x @ bindings "b" (k / 4) y))
        (pairs (all w) (all w)))
    conds;
  let tc = term_operand "c" 1 in
  let t = Tm.Inst.select tc ta tb in
  List.iter
    (fun c ->
      List.iter
        (fun (k, x, y) ->
          let b =
            B.Inst.select (bitvec_operand (k / 16) c) (bitvec_operand k x)
              (bitvec_operand (k / 4) y)
          in
          agree "select" b t
            (bindings "c" (k / 16) c @ bindings "a" k x @ bindings "b" (k / 4) y))
        (pairs (all w) (all w)))
    (all 1)

let test_casts () =
  List.iter
    (fun (c, from, into) ->
      let t = Tm.Inst.conv c (term_operand "a" from) into in
      List.iteri
        (fun k x ->
          agree
            (Printf.sprintf "%s i%d to i%d" (Ir.conv_name c) from into)
            (B.Inst.conv c (bitvec_operand k x) into)
            t (bindings "a" k x))
        (all from))
    casts

(* ---- The domain contains the concrete value ---- *)

(* Every singleton, plus ⊤ and (at i4) a few wider shapes, with their
   members. *)
let domains w =
  let bv = Bitvec.of_int ~width:w in
  let wider =
    if w < 4 then []
    else
      [ Dom.range w (bv 1) (bv 6); Dom.srange w (bv (-3)) (bv 2);
        Dom.join (Dom.singleton (bv 2)) (Dom.singleton (bv 8));
        Dom.of_kb w { Analysis.zeros = bv 1; ones = bv 4 } ]
  in
  let ds = List.map Dom.singleton (all w) @ (Dom.top w :: wider) in
  List.map (fun d -> (d, List.filter (Dom.contains d) (all w))) ds

let contains what (d : Dom.t) v =
  if not (Dom.contains d v) then Alcotest.failf "%s: %s escapes" what (show v)

let test_domain () =
  let w = 4 in
  let ds = domains w in
  List.iter
    (fun (da, xs) ->
      List.iter
        (fun (db, ys) ->
          List.iter
            (fun op ->
              let what = Ir.binop_name op in
              let value = D.binop op da db and defined = D.defined op da db in
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      let ok = B.defined op x y in
                      if ok then contains what value (B.binop op x y);
                      if defined <> Dom.Unknown && defined <> Dom.tri_of_bool ok
                      then
                        Alcotest.failf "%s on %s, %s: definedness contradicted"
                          what (show x) (show y))
                    ys)
                xs)
            binops;
          List.iter
            (fun c ->
              let value = D.icmp c da db in
              List.iter
                (fun x ->
                  List.iter
                    (fun y -> contains (Ir.cond_name c) value (B.icmp c x y))
                    ys)
                xs)
            conds;
          List.iter
            (fun (dc, cs) ->
              let value = D.select dc da db in
              List.iter
                (fun c ->
                  List.iter
                    (fun x ->
                      List.iter
                        (fun y -> contains "select" value (B.select c x y))
                        ys)
                    xs)
                cs)
            (domains 1))
        ds)
    ds;
  List.iter
    (fun (c, from, into) ->
      List.iter
        (fun (d, xs) ->
          let value = D.conv c d into in
          List.iter (fun x -> contains (Ir.conv_name c) value (B.conv c x into)) xs)
        (domains from))
    casts

let suite =
  ( "semantics",
    [
      Alcotest.test_case "bit-vectors and terms agree on i4 binops" `Quick
        test_binops;
      Alcotest.test_case "bit-vectors and terms agree on icmp and select"
        `Quick test_icmp_select;
      Alcotest.test_case "bit-vectors and terms agree on casts" `Quick
        test_casts;
      Alcotest.test_case "domain contains every defined value" `Quick
        test_domain;
    ] )
