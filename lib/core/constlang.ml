(* Alive's constant language (§2.2) and built-in predicates (§2.3),
   defined once over a value algebra; see constlang.mli. *)

open Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

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

(* The one map from the constant language's operators to the IR's. *)
let ir_cbinop = function
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

module Make (A : Semantics.ALGEBRA) = struct
  module Sem = Semantics.Make (A)

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
        A.binop (ir_cbinop op) a b
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

  (* A precondition comparison reads as the [icmp] condition. *)
  let compare op =
    Sem.compare
      (match op with
      | Peq -> Ir.Eq
      | Pne -> Ir.Ne
      | Pult -> Ir.Ult
      | Pule -> Ir.Ule
      | Pugt -> Ir.Ugt
      | Puge -> Ir.Uge
      | Pslt -> Ir.Slt
      | Psle -> Ir.Sle
      | Psgt -> Ir.Sgt
      | Psge -> Ir.Sge)

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
        let filled = A.binop Ir.Or x (A.binop Ir.Sub x (one w)) in
        let succ = A.binop Ir.Add filled (one w) in
        let run = A.is_power_of_two_or_zero succ in
        let nonzero = A.not_ (A.eq x (zero w)) in
        A.and_ [ nonzero; run ]
    | "MaskedValueIsZero", [ v; mask ] ->
        let v = arg v in
        let mask = cexpr l ~width:(A.width v) mask in
        let masked = A.binop Ir.And v mask in
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
        A.and_ [ a; b ]
    | Por (a, b) ->
        let b = pred ?call l b in
        let a = pred ?call l a in
        A.or_ [ a; b ]
    | Pnot a -> A.not_ (pred ?call l a)
end

(* --- The term algebra and the three instances --- *)

module Term_algebra = struct
  module T = Alive_smt.Term

  type v = T.t
  type b = T.t

  let width = T.width
  let const = T.const

  let binop = function
    | Ir.Add -> T.add
    | Ir.Sub -> T.sub
    | Ir.Mul -> T.mul
    | Ir.Sdiv -> T.sdiv
    | Ir.Udiv -> T.udiv
    | Ir.Srem -> T.srem
    | Ir.Urem -> T.urem
    | Ir.Shl -> T.shl
    | Ir.Lshr -> T.lshr
    | Ir.Ashr -> T.ashr
    | Ir.And -> T.band
    | Ir.Or -> T.bor
    | Ir.Xor -> T.bxor

  let bnot = T.bnot
  let neg = T.bneg
  let extract = T.extract
  let zext = T.zext
  let sext = T.sext
  let trunc = T.trunc
  let eq = T.eq
  let ult = T.ult
  let slt = T.slt
  let tru = T.tru
  let not_ = T.not_
  let and_ = T.and_
  let or_ = T.or_
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

module Term = Make (Term_algebra)
module Concrete = Make (Semantics.Bitvec_algebra)
module Abstract = Make (Alive_absint.Domain_algebra.Full)
