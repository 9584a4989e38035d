(* The reduced product as a value algebra; see domain_algebra.mli. *)

module D = Domain

module type TRANSFER = sig
  val binop : Ir.binop -> int -> D.t -> D.t -> D.t
  val clamp : D.t -> D.t
end

module Make (Transfer : TRANSFER) = struct
  type v = D.t
  type b = D.tribool

  let width (d : v) = d.D.width
  let const = D.singleton
  let binop op a b = Transfer.binop op (width a) a b
  let bnot d = Transfer.clamp (D.bnot d)
  let neg d = binop Ir.Sub (D.singleton (Bitvec.zero (width d))) d
  let extract ~hi ~lo d = Transfer.clamp (D.extract ~hi ~lo d)
  let zext d w = Transfer.clamp (D.zext d w)
  let sext d w = Transfer.clamp (D.sext d w)
  let trunc d w = Transfer.clamp (D.trunc d w)
  let eq = D.tri_eq
  let ult = D.tri_ult
  let slt = D.tri_slt
  let tru = D.True
  let not_ = D.tri_not
  let and_ = List.fold_left D.tri_and D.True
  let or_ = List.fold_left D.tri_or D.False

  let ite c a b =
    match c with
    | D.True -> a
    | D.False -> b
    | D.Unknown -> Transfer.clamp (D.join a b)

  let is_power_of_two = D.tri_is_power_of_two ~or_zero:false
  let is_power_of_two_or_zero = D.tri_is_power_of_two ~or_zero:true

  (* The dedicated transfer proves more than the term's expansion would. *)
  let overflows op ~signed a b =
    D.tri_not (D.tri_will_not_overflow op ~signed a b)
end

module Full = Make (struct
  let binop = D.binop
  let clamp d = d
end)
