(** Known-bits analysis over IR functions (LLVM's [computeKnownBits]): the
    known-bits component of the reduced product in [Alive_absint.Domain],
    whose built-in predicates (§2.3) the optimizer and lint evaluate. It is
    a must-analysis: it may return "don't know" but never a wrong fact. *)

(** Bits proven zero / proven one. Invariant: [zeros land ones = 0]. *)
type known_bits = { zeros : Bitvec.t; ones : Bitvec.t }

val unknown : int -> known_bits
(** Nothing known at the given width. *)

val of_const : Bitvec.t -> known_bits
(** Every bit known. *)

val transfer_binop : Ir.binop -> int -> known_bits -> known_bits -> known_bits
(** The per-instruction transfer function at width [w]. Fully-known
    operands fold exactly. Sound partial transfers exist for
    [And]/[Or]/[Xor], shifts with fully-known in-range amounts,
    [Add]/[Sub] (ripple-carry bound propagation), [Mul] (trailing zeros
    add, and the low [k] bits are known when both operands' low [k] bits
    are), [Udiv]/[Urem] by a known power of two (exact shift/mask), and
    the non-negative-dividend cases of [Sdiv]/[Srem]; anything else
    degrades to {!unknown}. Exposed for the DSL-level lint domain and for
    the exhaustive differential tests against {!Interp}. *)

val known_bits : Ir.func -> Ir.value -> known_bits
(** Forward propagation through the def-use graph. Constants are fully
    known; parameters and [undef] are unknown. *)
