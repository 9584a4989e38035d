(** One definition of Alive's constant expressions (§2.2), built-in
    predicates (§2.3), comparisons and width rule, read over three value
    algebras:

    - {!Term}: SMT terms, for verification-condition generation;
    - {!Concrete}: bit-vectors and booleans, for inference's example labels
      and the optimizer's constant arithmetic;
    - {!Abstract}: the reduced product of {!Alive_absint.Domain} with
      Kleene truth values, for lint and the optimizer's preconditions.

    An algebra supplies only primitives every value type already has; the
    rest ([abs], [log2], [umax]…, [width(...)], [isSignBit],
    [isShiftedMask], [MaskedValueIsZero], the six derived comparisons) is
    written once in {!Make}, following the SMT encoding. A caller supplies
    its {!leaves}: what abstract constants and template values denote, which
    widths it knows, and [hasOneUse]. *)

exception Unsupported of string
(** A construct outside the language (unknown function or predicate, wrong
    arity), a fully literal expression whose width no leaf fixes, or a leaf
    the caller cannot resolve. *)

type overflow = [ `Add | `Sub | `Mul ]

(** The value algebra. [ite] on an undecided condition joins both arms. The
    power-of-two tests and the overflow checks are primitives because the
    domain's dedicated transfers prove more than their expansions. *)
module type ALGEBRA = sig
  type v  (** a fixed-width bit-vector value *)

  type b  (** a truth value *)

  val width : v -> int
  val const : Bitvec.t -> v
  val binop : Ast.cbinop -> v -> v -> v
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
      (** an abstract constant [C] at the context width *)
  value : string -> width:int -> 'v;  (** a template value [%x] *)
  width_of : string -> int option;
      (** the width a named leaf fixes, when the caller knows it *)
  default_width : int option;
      (** the width of an expression no leaf fixes; [None] raises
          {!Unsupported} *)
  bitwidth : (int -> width:int -> 'v) option;
      (** [width(e)] given [e]'s width; [None] reads it as that constant *)
  one_use : Ast.cexpr -> 'b;  (** [hasOneUse(e)], a profitability hint *)
}

val width : ('v, 'b) leaves -> Ast.cexpr -> int option
(** The width rule: the first named leaf, left to right, whose width the
    caller knows (the argument of [width(...)] never counts), else
    [default_width]. A comparison's or predicate call's arguments share
    the width of the first argument that has one. *)

module type S = sig
  type v
  type b

  val cexpr : (v, b) leaves -> width:int -> Ast.cexpr -> v
  (** A constant expression at a context width. *)

  val pred :
    ?call:(string -> Ast.cexpr list -> b -> b) -> (v, b) leaves -> Ast.pred -> b
  (** A precondition, every predicate call read as its precise fact;
      [call name args fact] may re-encode a call's fact (the verifier's
      one-sided analysis variables). Conjunctions and disjunctions read
      their right operand first. *)
end

module Make (A : ALGEBRA) : S with type v = A.v and type b = A.b

module Term_algebra :
  ALGEBRA with type v = Alive_smt.Term.t and type b = Alive_smt.Term.t

module Bitvec_algebra : ALGEBRA with type v = Bitvec.t and type b = bool

(** The abstract algebra over a binop transfer; [clamp] is applied to
    every other computed value. {!Alive_absint.Domain.binop} with the
    identity is the full product; a known-bits-only transfer gives lint's
    attribution mode. *)
module Domain_algebra (_ : sig
  val binop :
    Ir.binop ->
    int ->
    Alive_absint.Domain.t ->
    Alive_absint.Domain.t ->
    Alive_absint.Domain.t

  val clamp : Alive_absint.Domain.t -> Alive_absint.Domain.t
end) :
  ALGEBRA
    with type v = Alive_absint.Domain.t
     and type b = Alive_absint.Domain.tribool

module Term : S with type v = Alive_smt.Term.t and type b = Alive_smt.Term.t
module Concrete : S with type v = Bitvec.t and type b = bool

module Abstract :
  S
    with type v = Alive_absint.Domain.t
     and type b = Alive_absint.Domain.tribool
