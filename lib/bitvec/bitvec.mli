(** Arbitrary-width bitvector constants (widths 1 to 64).

    A value of type {!t} is a bit pattern of a fixed width together with that
    width. All arithmetic wraps around modulo [2^width], matching both LLVM
    integer semantics and the SMT-LIB bitvector theory. Values are kept
    canonical: bits above [width] are always zero, so structural equality is
    semantic equality.

    Division and remainder follow SMT-LIB: [udiv x 0] is all-ones, [urem x 0]
    is [x], [sdiv INT_MIN (-1)] wraps to [INT_MIN]. LLVM's undefined cases are
    handled by definedness constraints at a higher layer, never here. *)

type t

val max_width : int
(** Widest supported bitvector (64), the paper's verification bound. *)

(** {1 Construction} *)

val make : width:int -> int64 -> t
(** [make ~width bits] truncates [bits] to [width] bits.
    @raise Invalid_argument if [width] is not in [1..max_width]. *)

val of_int : width:int -> int -> t
val zero : int -> t
val one : int -> t
val all_ones : int -> t

val min_signed : int -> t
(** [min_signed w] is [INT_MIN] at width [w]: [1000...0]. *)

val max_signed : int -> t
(** [max_signed w] is [INT_MAX] at width [w]: [0111...1]. *)

val of_bool : bool -> t
(** 1-bit vector: [true] is [1], [false] is [0]. *)

val of_string : width:int -> string -> t
(** Parses a decimal (possibly negated) or [0x]-prefixed hex literal.
    @raise Invalid_argument on malformed input. *)

(** {1 Observation} *)

val width : t -> int

val to_int64 : t -> int64
(** Zero-extended bit pattern. *)

val to_signed_int64 : t -> int64
(** Sign-extended value. *)

val to_int : t -> int
(** Zero-extended value. @raise Invalid_argument if it exceeds [max_int]. *)

val bit : t -> int -> bool
(** [bit x i] is bit [i] (0 = least significant). Bits at or above the width
    are [false]. *)

val is_zero : t -> bool
val is_all_ones : t -> bool
val is_true : t -> bool
(** [is_true x] holds iff [x] is the 1-bit vector [1]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order: by width, then unsigned value. *)

val hash : t -> int

(** {1 Arithmetic (wrap-around)} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val sdiv : t -> t -> t
val urem : t -> t -> t
val srem : t -> t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shl : t -> t -> t
(** Shift amount is the unsigned value of the second operand; shifts of
    [width] or more produce zero (SMT-LIB semantics). *)

val lshr : t -> t -> t
val ashr : t -> t -> t
(** [ashr] saturates to all-sign-bits on over-shift (SMT-LIB semantics). *)

(** {1 Comparisons} *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool

(** {1 Width changes} *)

val zext : t -> int -> t
(** [zext x w] zero-extends to width [w]. @raise Invalid_argument if
    [w < width x]. *)

val sext : t -> int -> t
val trunc : t -> int -> t
(** [trunc x w] keeps the low [w] bits. @raise Invalid_argument if
    [w > width x]. *)

val extract : t -> hi:int -> lo:int -> t
(** Bits [hi..lo] inclusive, as a vector of width [hi - lo + 1]. *)

val concat : t -> t -> t
(** [concat hi lo] is [hi] in the high bits, [lo] in the low bits. *)

(** {1 Bit utilities (the paper's built-in constant functions)} *)

val popcount : t -> int
val ctz : t -> int
(** Trailing zeros; [width x] when [x] is zero. *)

val clz : t -> int
(** Leading zeros; [width x] when [x] is zero. *)

val is_power_of_two : t -> bool
(** True for nonzero powers of two. *)

val log2 : t -> t
(** Position of the highest set bit, as a vector of the same width;
    [log2 0 = 0]. *)

val abs : t -> t
(** Two's-complement absolute value; [abs INT_MIN = INT_MIN]. *)

val umax : t -> t -> t
val umin : t -> t -> t
val smax : t -> t -> t
val smin : t -> t -> t

(** {1 Overflow predicates (Table 2 checks, used by interpreter and tests)} *)

val add_overflows_signed : t -> t -> bool
val add_overflows_unsigned : t -> t -> bool
val sub_overflows_signed : t -> t -> bool
val sub_overflows_unsigned : t -> t -> bool
val mul_overflows_signed : t -> t -> bool
val mul_overflows_unsigned : t -> t -> bool

val overflows : [ `Add | `Sub | `Mul ] -> signed:bool -> t -> t -> bool
(** The check above for one operation and signedness. *)

(** {1 Printing} *)

val to_string_hex : t -> string
(** E.g. [0xF] for the 4-bit all-ones vector. *)

val to_string_unsigned : t -> string
val to_string_signed : t -> string

val pp : Format.formatter -> t -> unit
(** Counterexample rendering in the paper's Fig. 5 style:
    [0xF (15, -1)] — hex, unsigned, and (when different) signed decimal. *)
