(** Lowering of arithmetically heavy operations to the bit-blaster's core
    fragment. Division and remainder become restoring-division circuits,
    and shifts by non-constant amounts become logarithmic barrel shifters.
    The output contains no [Udiv], [Sdiv], [Urem], [Srem], and every
    [Shl]/[Lshr]/[Ashr] has a constant shift amount. *)

val lower : Term.t -> Term.t
(** Semantics-preserving: [eval env (lower t) = eval env t] for every
    valuation (property-tested). Memoized across the DAG within one call. *)
