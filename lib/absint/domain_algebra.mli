(** The reduced product ({!Domain}) with Kleene truth values as a
    {!Semantics.ALGEBRA}: the abstract reading of Alive's constant
    expressions and predicates ([Alive.Constlang.Abstract]) and of the
    instructions ({!Query}, lint). *)

(** A binop transfer, and [clamp], applied to every other computed value.
    {!Domain.binop} with the identity is the full product ({!Full}); a
    known-bits-only transfer gives lint's attribution mode. *)
module type TRANSFER = sig
  val binop : Ir.binop -> int -> Domain.t -> Domain.t -> Domain.t
  val clamp : Domain.t -> Domain.t
end

module Make (_ : TRANSFER) :
  Semantics.ALGEBRA with type v = Domain.t and type b = Domain.tribool

module Full :
  Semantics.ALGEBRA with type v = Domain.t and type b = Domain.tribool
