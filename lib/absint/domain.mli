(** The reduced product of known bits × unsigned/signed constant ranges ×
    congruence (stride/offset), over fixed-width bitvectors.

    A value describes the intersection of the three component
    concretizations; {!reduce} propagates facts between components. Every
    transfer function is a sound over-approximation under SMT-LIB total
    semantics (division by zero and over-shift are total), which in turn
    over-approximates LLVM IR where those executions are undefined — see
    docs/ANALYSIS.md for the full soundness argument. *)

type kb = Analysis.known_bits

type t = {
  width : int;
  kb : kb;
  umin : Bitvec.t;  (** inclusive unsigned lower bound *)
  umax : Bitvec.t;  (** inclusive unsigned upper bound *)
  smin : Bitvec.t;  (** inclusive signed lower bound *)
  smax : Bitvec.t;  (** inclusive signed upper bound *)
  stride : Bitvec.t;
      (** value ≡ [offset] (mod [stride]); [0] = the singleton
          [{offset}], [1] = no congruence information *)
  offset : Bitvec.t;
}

(** {1 Three-valued logic} *)

type tribool = True | False | Unknown

val tri_not : tribool -> tribool
val tri_and : tribool -> tribool -> tribool
val tri_or : tribool -> tribool -> tribool
val tri_of_bool : bool -> tribool

(** {1 Construction and queries} *)

val top : int -> t
val singleton : Bitvec.t -> t
val of_kb : int -> kb -> t
val range : int -> Bitvec.t -> Bitvec.t -> t
(** [range w lo hi]: the unsigned interval [lo, hi], reduced. *)

val srange : int -> Bitvec.t -> Bitvec.t -> t
(** [srange w lo hi]: the signed interval [lo, hi], reduced. *)

val is_singleton : t -> Bitvec.t option
val fully_known : t -> Bitvec.t option
(** Alias of {!is_singleton} mirroring the known-bits API. *)

val contains : t -> Bitvec.t -> bool
(** Membership, straight off the definition — the property-test oracle. *)

val reduce : t -> t option
(** Propagate facts between components to a small fixpoint. [None] means
    the concretization is provably empty (bottom). *)

(** {1 Lattice} *)

val join : t -> t -> t
val meet : t -> t -> t option
(** [None] = provably disjoint (bottom). *)

(** {1 Comparisons} *)

val tri_eq : t -> t -> tribool
val tri_ult : t -> t -> tribool
val tri_slt : t -> t -> tribool

(** {1 Transfer functions} *)

val binop : Ir.binop -> int -> t -> t -> t
(** Sound transfer for every IR binop at the given width. *)

val bnot : t -> t
val neg : t -> t
val zext : t -> int -> t
val sext : t -> int -> t
val trunc : t -> int -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
(** [concat hi lo]. *)

(** {1 Derived predicates} *)

val tri_will_not_overflow :
  [ `Add | `Sub | `Mul ] -> signed:bool -> t -> t -> tribool
(** Exact on two singletons at every width; otherwise decided from the
    signed or unsigned ranges. *)

val tri_is_power_of_two : ?or_zero:bool -> t -> tribool
