(** One definition of Alive's constant expressions (§2.2), built-in
    predicates (§2.3), comparisons and width rule, read over the value
    algebras of {!Semantics} — the same primitives that give the
    instructions their meaning:

    - {!Term}: SMT terms, for verification-condition generation;
    - {!Concrete}: bit-vectors and booleans, for inference's example labels
      and the optimizer's constant arithmetic;
    - {!Abstract}: the reduced product of {!Alive_absint.Domain} with
      Kleene truth values, for lint and the optimizer's preconditions.

    The rest ([abs], [log2], [umax]…, [width(...)], [isSignBit],
    [isShiftedMask], [MaskedValueIsZero]) is written once in {!Make},
    following the SMT encoding; a comparison reads as the [icmp] condition
    of {!Semantics.S.compare}. A caller supplies its {!leaves}: what
    abstract constants and template values denote, which widths it knows,
    and [hasOneUse]. *)

exception Unsupported of string
(** A construct outside the language (unknown function or predicate, wrong
    arity), a fully literal expression whose width no leaf fixes, or a leaf
    the caller cannot resolve. *)

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

module Make (A : Semantics.ALGEBRA) : S with type v = A.v and type b = A.b

module Term_algebra :
  Semantics.ALGEBRA with type v = Alive_smt.Term.t and type b = Alive_smt.Term.t

module Term : S with type v = Alive_smt.Term.t and type b = Alive_smt.Term.t
module Concrete : S with type v = Bitvec.t and type b = bool

module Abstract :
  S
    with type v = Alive_absint.Domain.t
     and type b = Alive_absint.Domain.tribool
