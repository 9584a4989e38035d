(** Abstract syntax of the Alive language (Fig. 1 of the paper).

    A transformation is [source => target] with an optional precondition.
    Types are optional everywhere: omitted types become inference variables,
    and the verifier checks the transformation for every feasible concrete
    typing (§3.2). Abstract constants ([C], [C1], …) and constant
    expressions ([C2 % (1 << C1)]) follow §2.2; built-in predicates
    ([isPowerOf2], [MaskedValueIsZero], …) follow §2.3. *)

(** {1 Types} *)

type typ =
  | Int of int (** [iN] *)
  | Ptr of typ (** [t*] *)
  | Arr of int * typ (** [[n x t]] *)

val pp_typ : Format.formatter -> typ -> unit
val equal_typ : typ -> typ -> bool

(** {1 Constant expressions and preconditions} *)

type cunop = Cneg  (** [-e] *) | Cnot  (** [~e] *)

type cbinop =
  | Cadd
  | Csub
  | Cmul
  | Csdiv
  | Cudiv
  | Csrem
  | Curem
  | Cshl
  | Clshr
  | Cashr
  | Cand
  | Cor
  | Cxor

type cexpr =
  | Cint of int64
      (** literal; its width comes from type inference, constrained so the
          value is representable in two's complement (the [(x+1) > x]
          example of §2.4 is valid only because literal [1] excludes [i1]) *)
  | Cbool of bool (** [true]/[false]: an [i1] literal with no width demand *)
  | Cabs of string (** abstract constant: [C], [C1], … *)
  | Cval of string (** reference to a program value [%x] (preconditions) *)
  | Cun of cunop * cexpr
  | Cbin of cbinop * cexpr * cexpr
  | Cfun of string * cexpr list (** built-in function: [log2(C)], [width(%x)], … *)

type pcmp = Peq | Pne | Pslt | Psle | Psgt | Psge | Pult | Pule | Pugt | Puge

type pred =
  | Ptrue
  | Pcmp of pcmp * cexpr * cexpr
  | Pcall of string * cexpr list (** built-in predicate *)
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred

val pp_cexpr : Format.formatter -> cexpr -> unit
val pp_pred : Format.formatter -> pred -> unit

(** {1 Instructions} *)

type binop =
  | Add
  | Sub
  | Mul
  | UDiv
  | SDiv
  | URem
  | SRem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor

val binop_name : binop -> string

type attr = Nsw | Nuw | Exact

val attr_name : attr -> string

type conv = Zext | Sext | Trunc | Bitcast | Ptrtoint | Inttoptr

val conv_name : conv -> string

type cond = Ceq | Cne | Cugt | Cuge | Cult | Cule | Csgt | Csge | Cslt | Csle

val cond_name : cond -> string

(** {2 The IR's opcodes}

    The integer instructions take their meaning from {!Semantics}, which
    reads the IR's opcodes. *)

val ir_binop : binop -> Ir.binop
val ir_attr : attr -> Ir.attr
val ir_cond : cond -> Ir.cond

val ir_conv : conv -> Ir.conv option
(** [None] for [bitcast], [ptrtoint] and [inttoptr], which the IR lacks. *)

type operand = Var of string | ConstOp of cexpr | Undef

(** An operand with its optional explicit type annotation. *)
type toperand = { op : operand; ty : typ option }

type inst =
  | Binop of binop * attr list * toperand * toperand
  | Conv of conv * toperand * typ option (** [conv op to ty] *)
  | Select of toperand * toperand * toperand
  | Icmp of cond * toperand * toperand
  | Copy of toperand (** explicit assignment [%a = %b] *)
  | Alloca of typ option * toperand (** element type, element count *)
  | Load of toperand
  | Gep of toperand * toperand list

type stmt =
  | Def of string * typ option * inst (** [%x = inst], result type *)
  | Store of toperand * toperand (** value, pointer *)
  | Unreachable

(** {1 Transformations} *)

(** Source locations recorded by the parser (1-based lines into the parsed
    text). Programmatic construction uses {!no_locs}; the accessors fall
    back to [header_line] when a statement has no recorded line, so
    location lookups never fail. *)
type locs = {
  header_line : int;  (** the [Name:] line, or the first source line *)
  pre_line : int;  (** 0 when there is no precondition *)
  src_lines : int array;
  tgt_lines : int array;
}

val no_locs : locs

val src_line : locs -> int -> int
(** Line of the [i]-th source statement. *)

val tgt_line : locs -> int -> int
val pre_line : locs -> int

type transform = {
  name : string;
  pre : pred;
  src : stmt list;
  tgt : stmt list;
  locs : locs;
}

val pp_stmt : Format.formatter -> stmt -> unit
val pp_transform : Format.formatter -> transform -> unit

(** {1 Structural helpers} *)

val operands_of_inst : inst -> toperand list
val defined_names : stmt list -> string list

val def_insts : stmt list -> (string * inst) list
(** Each definition's name and instruction, in statement order. *)

val root_of : stmt list -> string option
(** The root variable: the last definition of the template (§2.1). *)

val operand_vars : stmt list -> string list
(** All [%var] names used as operands, in first-use order, without dups. *)

val abstract_constants : transform -> string list
(** All abstract constant names ([C1], …) used anywhere, without dups. *)

val has_memory_ops : transform -> bool
