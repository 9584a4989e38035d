(** The concrete-IR facade over the reduced product: every value of a
    function gets a {!Domain.t}, the value of the {!Semantics} instance over
    {!Domain_algebra.Full} — strictly at least as precise as the
    known-bits-only [Ir.Analysis], since known bits are one component of
    the product. [Opt.Concrete] reads the operands of
    conditionally-valid rewrites through it. *)

type env

val analyze : Ir.func -> env
(** An empty memo over the function; no domain is computed yet. The body
    must list each definition before its uses. *)

val value_domain : env -> Ir.value -> Domain.t
(** A definition's domain is computed from its operands' domains on first
    read, a parameter's is top, and both are memoized in [env]. The domains
    are those of one forward pass over the body. *)
