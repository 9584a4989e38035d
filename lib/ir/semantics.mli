(** The one executable meaning of the integer instructions (§2.4, Tables
    1–2), read over a value algebra.

    For each instruction the paper gives a value, a definedness condition
    (Table 1: division by zero, [INT_MIN / -1], over-shift) and a
    poison-freedom condition (Table 2: the [nsw]/[nuw]/[exact]
    attributes). {!Make} writes those three once; every evaluator of
    instructions is an instance of it:

    - {!Bitvec_algebra}: bit-vectors and booleans — the interpreter
      ({!Interp}), the constant folder and inference's example labels;
    - the SMT term algebra ([Alive.Constlang.Term_algebra]) — the VC
      generator;
    - the reduced product ([Alive_absint.Domain_algebra]) — the optimizer's
      abstract analysis and lint, plus lint's known-bits-only mode.

    The same algebra carries Alive's constant expressions and predicates
    ([Alive.Constlang]), so constant expressions and instructions share one
    set of primitives. *)

type overflow = [ `Add | `Sub | `Mul ]

(** The value algebra. [ite] on an undecided condition joins both arms.
    The power-of-two tests and the overflow checks are primitives because
    the abstract domain's dedicated transfers prove more than their
    expansions. [and_] and [or_] take lists, the form the term algebra
    builds. *)
module type ALGEBRA = sig
  type v  (** a fixed-width bit-vector value *)

  type b  (** a truth value *)

  val width : v -> int
  val const : Bitvec.t -> v
  val binop : Ir.binop -> v -> v -> v
  (** Total: division by zero and over-shift take their SMT-LIB values,
      which only ever meet executions Table 1 calls undefined. *)

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

(** An instruction's meaning: its value, and whether it is defined and
    poison-free, each conjoined over the def-use chain. *)
type ('v, 'b) ival = { value : 'v; defined : 'b; poison_free : 'b }

module type S = sig
  type v
  type b

  (** {1 Values}

      A consumer that reads values only (the abstract analyses) computes no
      condition. *)

  val binop : Ir.binop -> v -> v -> v
  val compare : Ir.cond -> v -> v -> b
  (** An [icmp] condition as a truth value. *)

  val icmp : Ir.cond -> v -> v -> v
  (** The [i1] result of [icmp]. *)

  val select : v -> v -> v -> v
  (** [select c, a, b] on an [i1] condition. *)

  val conv : Ir.conv -> v -> int -> v
  (** [zext]/[sext]/[trunc] to the given width. *)

  (** {1 Table 1 and Table 2} *)

  val defined : Ir.binop -> v -> v -> b
  (** Local definedness: the divisor is non-zero, [INT_MIN / -1] is
      excluded, the shift amount is below the width. *)

  val poison_free : Ir.binop -> Ir.attr list -> v -> v -> b
  (** Local poison-freedom under the attributes present.
      @raise Invalid_argument on an attribute the opcode does not take
      ({!Ir.takes_attr}). *)

  (** {1 Instructions over tainted operands}

      Definedness and poison-freedom conjoin the local condition with the
      operands'. [select] is poison when its condition or either arm is,
      as in the SMT encoding. *)

  module Inst : sig
    val of_value : v -> (v, b) ival
    (** A defined, poison-free operand. *)

    val binop :
      Ir.binop -> Ir.attr list -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val icmp : Ir.cond -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val select : (v, b) ival -> (v, b) ival -> (v, b) ival -> (v, b) ival
    val conv : Ir.conv -> (v, b) ival -> int -> (v, b) ival
  end
end

module Make (A : ALGEBRA) : S with type v = A.v and type b = A.b

module Bitvec_algebra : ALGEBRA with type v = Bitvec.t and type b = bool
