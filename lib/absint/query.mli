(** The concrete-IR facade over the reduced product: one forward pass per
    function assigns every value a {!Domain.t}, the value of the
    {!Semantics} instance over {!Domain_algebra.Full} — strictly at least as
    precise as the known-bits-only [Ir.Analysis], since known bits are one
    component of the product. [Opt.Concrete] reads the operands of
    conditionally-valid rewrites through it. *)

type env

val analyze : Ir.func -> env
val value_domain : env -> Ir.value -> Domain.t
