(* The integer instructions' value, Table 1 definedness and Table 2
   poison-freedom, defined once over a value algebra; see semantics.mli. *)

open Ir

type overflow = [ `Add | `Sub | `Mul ]

module type ALGEBRA = sig
  type v
  type b

  val width : v -> int
  val const : Bitvec.t -> v
  val binop : Ir.binop -> v -> v -> v
  val bnot : v -> v
  val neg : v -> v
  val extract : hi:int -> lo:int -> v -> v
  val zext : v -> int -> v
  val sext : v -> int -> v
  val trunc : v -> int -> v
  val eq : v -> v -> b
  val ult : v -> v -> b
  val slt : v -> v -> b
  val tru : b
  val not_ : b -> b
  val and_ : b list -> b
  val or_ : b list -> b
  val ite : b -> v -> v -> v
  val is_power_of_two : v -> b
  val is_power_of_two_or_zero : v -> b
  val overflows : overflow -> signed:bool -> v -> v -> b
end

type ('v, 'b) ival = { value : 'v; defined : 'b; poison_free : 'b }

module type S = sig
  type v
  type b

  val binop : Ir.binop -> v -> v -> v
  val compare : Ir.cond -> v -> v -> b
  val icmp : Ir.cond -> v -> v -> v
  val select : v -> v -> v -> v
  val conv : Ir.conv -> v -> int -> v
  val defined : Ir.binop -> v -> v -> b
  val poison_free : Ir.binop -> Ir.attr list -> v -> v -> b

  module Inst : sig
    val of_value : v -> (v, b) ival
    val binop :
      Ir.binop -> Ir.attr list -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val icmp : Ir.cond -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val select : (v, b) ival -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val conv : Ir.conv -> (v, b) ival -> int -> (v, b) ival
  end
end

module Make (A : ALGEBRA) = struct
  type v = A.v
  type b = A.b

  let binop = A.binop

  let compare c a b =
    match c with
    | Eq -> A.eq a b
    | Ne -> A.not_ (A.eq a b)
    | Ugt -> A.ult b a
    | Uge -> A.not_ (A.ult a b)
    | Ult -> A.ult a b
    | Ule -> A.not_ (A.ult b a)
    | Sgt -> A.slt b a
    | Sge -> A.not_ (A.slt a b)
    | Slt -> A.slt a b
    | Sle -> A.not_ (A.slt b a)

  let icmp c a b =
    A.ite (compare c a b) (A.const (Bitvec.one 1)) (A.const (Bitvec.zero 1))

  let select c a b = A.ite (A.eq c (A.const (Bitvec.one 1))) a b

  let conv c a w =
    match c with Zext -> A.zext a w | Sext -> A.sext a w | Trunc -> A.trunc a w

  (* Table 1, on the operands' values alone: a zero divisor is undefined
     however poisoned the dividend is. *)
  let defined op a b =
    let w = A.width a in
    let nonzero_divisor () = A.not_ (A.eq b (A.const (Bitvec.zero w))) in
    match op with
    | Udiv | Urem -> nonzero_divisor ()
    | Sdiv | Srem ->
        let not_min = A.not_ (A.eq a (A.const (Bitvec.min_signed w))) in
        let not_minus_one = A.not_ (A.eq b (A.const (Bitvec.all_ones w))) in
        A.and_ [ nonzero_divisor (); A.or_ [ not_min; not_minus_one ] ]
    | Shl | Lshr | Ashr -> A.ult b (A.const (Bitvec.of_int ~width:w w))
    | Add | Sub | Mul | And | Or | Xor -> A.tru

  (* Table 2: each attribute present must hold. A shift or division is
     lossless when undoing it gives the operand back. *)
  let poison_free op attrs x y =
    let no_overflow ov ~signed = A.not_ (A.overflows ov ~signed x y) in
    let undoes inverse forward =
      A.eq (A.binop inverse (A.binop forward x y) y) x
    in
    let holds attr =
      match (op, attr) with
      | Add, Nsw -> no_overflow `Add ~signed:true
      | Add, Nuw -> no_overflow `Add ~signed:false
      | Sub, Nsw -> no_overflow `Sub ~signed:true
      | Sub, Nuw -> no_overflow `Sub ~signed:false
      | Mul, Nsw -> no_overflow `Mul ~signed:true
      | Mul, Nuw -> no_overflow `Mul ~signed:false
      | Shl, Nsw -> undoes Ashr Shl
      | Shl, Nuw -> undoes Lshr Shl
      | Sdiv, Exact -> undoes Mul Sdiv
      | Udiv, Exact -> undoes Mul Udiv
      | Ashr, Exact -> undoes Shl Ashr
      | Lshr, Exact -> undoes Shl Lshr
      | _ ->
          invalid_arg
            (Printf.sprintf "Semantics.poison_free: %s does not take %s"
               (binop_name op) (attr_name attr))
    in
    A.and_ (List.map holds attrs)

  module Inst = struct
    let of_value value = { value; defined = A.tru; poison_free = A.tru }

    let binop op attrs a b =
      {
        value = binop op a.value b.value;
        defined = A.and_ [ defined op a.value b.value; a.defined; b.defined ];
        poison_free =
          A.and_
            [
              poison_free op attrs a.value b.value; a.poison_free; b.poison_free;
            ];
      }

    let icmp c a b =
      {
        value = icmp c a.value b.value;
        defined = A.and_ [ a.defined; b.defined ];
        poison_free = A.and_ [ a.poison_free; b.poison_free ];
      }

    let select c a b =
      {
        value = select c.value a.value b.value;
        defined = A.and_ [ c.defined; a.defined; b.defined ];
        poison_free = A.and_ [ c.poison_free; a.poison_free; b.poison_free ];
      }

    let conv c a w = { a with value = conv c a.value w }
  end
end

module Bitvec_algebra = struct
  type v = Bitvec.t
  type b = bool

  let width = Bitvec.width
  let const c = c

  let binop = function
    | Add -> Bitvec.add
    | Sub -> Bitvec.sub
    | Mul -> Bitvec.mul
    | Udiv -> Bitvec.udiv
    | Sdiv -> Bitvec.sdiv
    | Urem -> Bitvec.urem
    | Srem -> Bitvec.srem
    | Shl -> Bitvec.shl
    | Lshr -> Bitvec.lshr
    | Ashr -> Bitvec.ashr
    | And -> Bitvec.logand
    | Or -> Bitvec.logor
    | Xor -> Bitvec.logxor

  let bnot = Bitvec.lognot
  let neg = Bitvec.neg
  let extract ~hi ~lo x = Bitvec.extract x ~hi ~lo
  let zext = Bitvec.zext
  let sext = Bitvec.sext
  let trunc = Bitvec.trunc
  let eq = Bitvec.equal
  let ult = Bitvec.ult
  let slt = Bitvec.slt
  let tru = true
  let not_ = not
  let and_ = List.for_all Fun.id
  let or_ = List.exists Fun.id
  let ite c a b = if c then a else b
  let is_power_of_two = Bitvec.is_power_of_two

  let is_power_of_two_or_zero x =
    Bitvec.is_zero (Bitvec.logand x (Bitvec.sub x (Bitvec.one (Bitvec.width x))))

  let overflows = Bitvec.overflows
end
