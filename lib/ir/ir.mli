(** A straight-line SSA subset of LLVM IR (Fig. 1 of the paper, minus
    branches, which InstCombine never needs). This is the substrate on which
    verified Alive transformations are applied and measured (§6.4, Fig. 9);
    it is deliberately independent of the Alive AST — it plays the role
    LLVM plays for the paper.

    Widths are integer bit counts; only integer types appear in the
    executable fragment (the verifier's memory encoding is separate). *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Sdiv
  | Urem
  | Srem
  | Shl
  | Lshr
  | Ashr
  | And
  | Or
  | Xor

type attr = Nsw | Nuw | Exact
type conv = Zext | Sext | Trunc

type cond = Eq | Ne | Ugt | Uge | Ult | Ule | Sgt | Sge | Slt | Sle

type value =
  | Var of string
  | Const of Bitvec.t
  | Undef of int  (** an undef of the given width *)

type inst =
  | Binop of binop * attr list * value * value
  | Icmp of cond * value * value
  | Select of value * value * value
  | Conv of conv * value  (** target width is the def's width *)
  | Freeze of value
      (** not in the 2015 paper; used by tests to pin undef values *)

(** One SSA definition: [%name = inst : iN]. *)
type def = { name : string; width : int; inst : inst }

type func = {
  fname : string;
  params : (string * int) list;
  body : def list;
  ret : value;
}

val binop_name : binop -> string
val cond_name : cond -> string
val attr_name : attr -> string
val conv_name : conv -> string

val pp_value : Format.formatter -> value -> unit
val pp_def : Format.formatter -> def -> unit
val pp_func : Format.formatter -> func -> unit

val takes_attr : binop -> attr -> bool
(** [nsw]/[nuw] on [add], [sub], [mul] and [shl]; [exact] on [udiv],
    [sdiv], [lshr] and [ashr]. *)

val operands_of : inst -> value list
(** An instruction's operands, left to right. *)

val value_width : func -> value -> int
(** Width of a value in the context of a function.
    @raise Not_found for unknown variables. *)

val def_of : func -> string -> def option

val validate : func -> (unit, string) result
(** SSA well-formedness: parameters and defs named once, uses after defs,
    operand widths consistent, attributes only where {!takes_attr} allows
    them, [ret] well formed. *)

val map_body : (def list -> def list) -> func -> func

val substitute : func -> string -> value -> func
(** [substitute f name v] drops the definition of [name] and replaces each
    of its uses, in the body and in [ret], by [v]. A definition that does
    not use [name] is kept as the same physical value. *)

val uses_of : func -> (string, int) Hashtbl.t
(** Use counts per variable name, over operands and [ret] (the basis of
    [hasOneUse] and of the pass's use counts). *)
