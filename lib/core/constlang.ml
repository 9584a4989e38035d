(* Alive's constant language (§2.2) and built-in predicates (§2.3),
   defined once over a value algebra; see constlang.mli. *)

open Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type overflow = [ `Add | `Sub | `Mul ]

module type ALGEBRA = sig
  type v
  type b

  val width : v -> int
  val const : Bitvec.t -> v
  val binop : cbinop -> v -> v -> v
  val bnot : v -> v
  val neg : v -> v
  val extract : hi:int -> lo:int -> v -> v
  val eq : v -> v -> b
  val ult : v -> v -> b
  val slt : v -> v -> b
  val tru : b
  val not_ : b -> b
  val and_ : b -> b -> b
  val or_ : b -> b -> b
  val ite : b -> v -> v -> v
  val is_power_of_two : v -> b
  val is_power_of_two_or_zero : v -> b
  val overflows : overflow -> signed:bool -> v -> v -> b
end

type ('v, 'b) leaves = {
  constant : string -> width:int -> 'v;
  value : string -> width:int -> 'v;
  width_of : string -> int option;
  default_width : int option;
  bitwidth : (int -> width:int -> 'v) option;
  one_use : cexpr -> 'b;
}

(* --- The width rule --- *)

(* The first named leaf, left to right, whose width the caller knows fixes
   an expression's width; the argument of [width(...)] never does. *)
let rec fixed_width l = function
  | Cint _ | Cbool _ -> None
  | Cabs n | Cval n -> l.width_of n
  | Cun (_, e) -> fixed_width l e
  | Cbin (_, a, b) -> (
      match fixed_width l a with Some w -> Some w | None -> fixed_width l b)
  | Cfun ("width", _) -> None
  | Cfun (_, args) -> List.find_map (fixed_width l) args

let shared_width l es =
  match List.find_map (fixed_width l) es with
  | Some w -> Some w
  | None -> l.default_width

let width l e = shared_width l [ e ]

let shared_width_exn l es =
  match shared_width l es with
  | Some w -> w
  | None ->
      raise
        (Unsupported
           "cannot determine the width of a fully literal expression in this \
            context")

let overflow_predicate = function
  | "WillNotOverflowSignedAdd" -> Some (`Add, true)
  | "WillNotOverflowUnsignedAdd" -> Some (`Add, false)
  | "WillNotOverflowSignedSub" -> Some (`Sub, true)
  | "WillNotOverflowUnsignedSub" -> Some (`Sub, false)
  | "WillNotOverflowSignedMul" -> Some (`Mul, true)
  | "WillNotOverflowUnsignedMul" -> Some (`Mul, false)
  | _ -> None

module type S = sig
  type v
  type b

  val cexpr : (v, b) leaves -> width:int -> cexpr -> v

  val pred :
    ?call:(string -> cexpr list -> b -> b) -> (v, b) leaves -> pred -> b
end

module Make (A : ALGEBRA) = struct
  type v = A.v
  type b = A.b

  let const_int ~width n = A.const (Bitvec.of_int ~width n)
  let zero w = A.const (Bitvec.zero w)
  let one w = A.const (Bitvec.one w)

  (* Operands are bound with [let] so the term algebra builds its
     hash-consed terms in a fixed order. *)

  let abs x =
    let w = A.width x in
    let negated = A.neg x in
    let negative = A.slt x (zero w) in
    A.ite negative negated x

  (* Position of the highest set bit (0 for zero); scans upward so later
     bits win. *)
  let log2 x =
    let w = A.width x in
    let rec go i acc =
      if i = w then acc
      else
        let pos = const_int ~width:w i in
        let set = A.eq (A.extract ~hi:i ~lo:i x) (one 1) in
        go (i + 1) (A.ite set pos acc)
    in
    go 0 (zero w)

  let rec cexpr l ~width e =
    let recur = cexpr l ~width in
    match e with
    | Cint n -> A.const (Bitvec.make ~width n)
    | Cbool b -> const_int ~width (if b then 1 else 0)
    | Cabs name -> l.constant name ~width
    | Cval name -> l.value name ~width
    | Cun (Cneg, a) -> A.neg (recur a)
    | Cun (Cnot, a) -> A.bnot (recur a)
    | Cbin (op, a, b) ->
        let a = recur a in
        let b = recur b in
        A.binop op a b
    | Cfun ("abs", [ a ]) -> abs (recur a)
    | Cfun ("log2", [ a ]) -> log2 (recur a)
    | Cfun (("umax" | "umin" | "smax" | "smin") as f, [ a; b ]) ->
        let a = recur a in
        let b = recur b in
        let lt = match f with "umax" | "umin" -> A.ult a b | _ -> A.slt a b in
        (match f with "umax" | "smax" -> A.ite lt b a | _ -> A.ite lt a b)
    | Cfun ("width", [ a ]) -> (
        (* The argument's bitwidth, as a constant at the context width. *)
        let w = shared_width_exn l [ a ] in
        match l.bitwidth with
        | Some f -> f w ~width
        | None -> const_int ~width w)
    | Cfun (f, args) -> unsupported "constant function %s/%d" f (List.length args)

  let compare op a b =
    match op with
    | Peq -> A.eq a b
    | Pne -> A.not_ (A.eq a b)
    | Pult -> A.ult a b
    | Pule -> A.not_ (A.ult b a)
    | Pugt -> A.ult b a
    | Puge -> A.not_ (A.ult a b)
    | Pslt -> A.slt a b
    | Psle -> A.not_ (A.slt b a)
    | Psgt -> A.slt b a
    | Psge -> A.not_ (A.slt a b)

  (* The precise fact underlying each built-in predicate. The arguments of
     one call share a width (the typing unifies them), so
     [MaskedValueIsZero]'s mask is read at the value's width. *)
  let predicate l name args =
    let arg e = cexpr l ~width:(shared_width_exn l args) e in
    match (name, args) with
    | ("hasOneUse" | "OneUse"), [ a ] -> l.one_use a
    | "isPowerOf2", [ a ] -> A.is_power_of_two (arg a)
    | "isPowerOf2OrZero", [ a ] -> A.is_power_of_two_or_zero (arg a)
    | "isSignBit", [ a ] ->
        let x = arg a in
        A.eq x (A.const (Bitvec.min_signed (A.width x)))
    | "isShiftedMask", [ a ] ->
        (* A non-empty run of contiguous ones: x ≠ 0 and (x | (x-1)) + 1 has
           at most one bit set. *)
        let x = arg a in
        let w = A.width x in
        let filled = A.binop Cor x (A.binop Csub x (one w)) in
        let succ = A.binop Cadd filled (one w) in
        let run = A.is_power_of_two_or_zero succ in
        let nonzero = A.not_ (A.eq x (zero w)) in
        A.and_ nonzero run
    | "MaskedValueIsZero", [ v; mask ] ->
        let v = arg v in
        let mask = cexpr l ~width:(A.width v) mask in
        let masked = A.binop Cand v mask in
        A.eq masked (zero (A.width masked))
    | _ -> (
        match (overflow_predicate name, args) with
        | Some (op, signed), [ a; b ] ->
            let b = arg b in
            let a = arg a in
            A.not_ (A.overflows op ~signed a b)
        | _ -> unsupported "predicate %s/%d" name (List.length args))

  (* Conjuncts and disjuncts are read right to left: the verifier numbers
     its analysis variables in that order. *)
  let rec pred ?call l p =
    match p with
    | Ptrue -> A.tru
    | Pcmp (op, a, b) ->
        let width = shared_width_exn l [ a; b ] in
        let a = cexpr l ~width a in
        let b = cexpr l ~width b in
        compare op a b
    | Pcall (name, args) -> (
        let fact = predicate l name args in
        match call with Some wrap -> wrap name args fact | None -> fact)
    | Pand (a, b) ->
        let b = pred ?call l b in
        let a = pred ?call l a in
        A.and_ a b
    | Por (a, b) ->
        let b = pred ?call l b in
        let a = pred ?call l a in
        A.or_ a b
    | Pnot a -> A.not_ (pred ?call l a)
end

(* --- The three algebras --- *)

module Term_algebra = struct
  module T = Alive_smt.Term

  type v = T.t
  type b = T.t

  let width = T.width
  let const = T.const

  let binop = function
    | Cadd -> T.add
    | Csub -> T.sub
    | Cmul -> T.mul
    | Csdiv -> T.sdiv
    | Cudiv -> T.udiv
    | Csrem -> T.srem
    | Curem -> T.urem
    | Cshl -> T.shl
    | Clshr -> T.lshr
    | Cashr -> T.ashr
    | Cand -> T.band
    | Cor -> T.bor
    | Cxor -> T.bxor

  let bnot = T.bnot
  let neg = T.bneg
  let extract = T.extract
  let eq = T.eq
  let ult = T.ult
  let slt = T.slt
  let tru = T.tru
  let not_ = T.not_
  let and_ a b = T.and_ [ a; b ]
  let or_ a b = T.or_ [ a; b ]
  let ite = T.ite
  let is_power_of_two = T.is_power_of_two
  let is_power_of_two_or_zero x = T.is_zero (T.band x (T.sub x (T.one (T.width x))))

  let overflows op ~signed =
    match (op, signed) with
    | `Add, true -> T.add_overflows_signed
    | `Add, false -> T.add_overflows_unsigned
    | `Sub, true -> T.sub_overflows_signed
    | `Sub, false -> T.sub_overflows_unsigned
    | `Mul, true -> T.mul_overflows_signed
    | `Mul, false -> T.mul_overflows_unsigned
end

module Bitvec_algebra = struct
  type v = Bitvec.t
  type b = bool

  let width = Bitvec.width
  let const c = c

  let binop = function
    | Cadd -> Bitvec.add
    | Csub -> Bitvec.sub
    | Cmul -> Bitvec.mul
    | Csdiv -> Bitvec.sdiv
    | Cudiv -> Bitvec.udiv
    | Csrem -> Bitvec.srem
    | Curem -> Bitvec.urem
    | Cshl -> Bitvec.shl
    | Clshr -> Bitvec.lshr
    | Cashr -> Bitvec.ashr
    | Cand -> Bitvec.logand
    | Cor -> Bitvec.logor
    | Cxor -> Bitvec.logxor

  let bnot = Bitvec.lognot
  let neg = Bitvec.neg
  let extract ~hi ~lo x = Bitvec.extract x ~hi ~lo
  let eq = Bitvec.equal
  let ult = Bitvec.ult
  let slt = Bitvec.slt
  let tru = true
  let not_ = not
  let and_ = ( && )
  let or_ = ( || )
  let ite c a b = if c then a else b
  let is_power_of_two = Bitvec.is_power_of_two

  let is_power_of_two_or_zero x =
    Bitvec.is_zero (Bitvec.logand x (Bitvec.sub x (Bitvec.one (Bitvec.width x))))

  let overflows = Bitvec.overflows
end

module Domain_algebra (Transfer : sig
  val binop : Ir.binop -> int -> Alive_absint.Domain.t -> Alive_absint.Domain.t -> Alive_absint.Domain.t
  val clamp : Alive_absint.Domain.t -> Alive_absint.Domain.t
end) =
struct
  module D = Alive_absint.Domain

  type v = D.t
  type b = D.tribool

  let width (d : v) = d.D.width
  let const = D.singleton

  let ir_binop = function
    | Cadd -> Ir.Add
    | Csub -> Ir.Sub
    | Cmul -> Ir.Mul
    | Csdiv -> Ir.Sdiv
    | Cudiv -> Ir.Udiv
    | Csrem -> Ir.Srem
    | Curem -> Ir.Urem
    | Cshl -> Ir.Shl
    | Clshr -> Ir.Lshr
    | Cashr -> Ir.Ashr
    | Cand -> Ir.And
    | Cor -> Ir.Or
    | Cxor -> Ir.Xor

  let binop op a b = Transfer.binop (ir_binop op) (width a) a b
  let bnot d = Transfer.clamp (D.bnot d)
  let neg d = Transfer.binop Ir.Sub (width d) (D.singleton (Bitvec.zero (width d))) d
  let extract ~hi ~lo d = Transfer.clamp (D.extract ~hi ~lo d)
  let eq = D.tri_eq
  let ult = D.tri_ult
  let slt = D.tri_slt
  let tru = D.True
  let not_ = D.tri_not
  let and_ = D.tri_and
  let or_ = D.tri_or

  let ite c a b =
    match c with
    | D.True -> a
    | D.False -> b
    | D.Unknown -> Transfer.clamp (D.join a b)

  let is_power_of_two = D.tri_is_power_of_two ~or_zero:false
  let is_power_of_two_or_zero = D.tri_is_power_of_two ~or_zero:true

  (* The dedicated transfer proves more than the term's expansion would. *)
  let overflows op ~signed a b = D.tri_not (D.tri_will_not_overflow op ~signed a b)
end

module Term = Make (Term_algebra)
module Concrete = Make (Bitvec_algebra)

module Abstract = Make (Domain_algebra (struct
  let binop = Alive_absint.Domain.binop
  let clamp d = d
end))
