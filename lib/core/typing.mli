(** Type inference and feasible-type enumeration (§3.2, Fig. 3).

    Alive transformations are polymorphic: every value and abstract constant
    gets a type variable, the instructions impose constraints (equalities,
    strict width orders for [zext]/[sext]/[trunc], class constraints), and
    verification runs once per feasible concrete assignment.

    The paper enumerates models of an SMT formula over QF_LIA; this module
    gets the same model set with union-find unification plus finite-domain
    width enumeration over a configurable domain (default: all widths 1–8,
    ordered to prefer 4 and 8 so counterexamples are readable, per §3.1.4).
    The upper bound makes verification bounded exactly as in the paper
    (64 there, 8 here by default — see DESIGN.md). *)

type error = { message : string; transform : string }

val pp_error : Format.formatter -> error -> unit

(** A concrete typing: every program value and abstract constant is mapped
    to a concrete type. *)
type env

val typ_of_value : env -> string -> Ast.typ
(** @raise Not_found for unknown names. *)

val typ_of_const : env -> string -> Ast.typ

val width_of_value : env -> string -> int
(** Width of an integer-typed value.
    @raise Invalid_argument on non-integer types. *)

val width_of_const : env -> string -> int
val pp_env : Format.formatter -> env -> unit

val default_widths : int list
(** [[4; 8; 1; 2; 3; 5; 6; 7]] — all widths up to 8, preferred first. *)

val parse_widths : string -> (int list, string) result
(** A width domain from its command-line spelling: comma-separated items,
    each a width or an inclusive range, all within 1..64 — ["4,8"],
    ["1..32"], ["1..8,16,32"]. *)

val enumerate :
  ?widths:int list ->
  ?max_typings:int ->
  Ast.transform ->
  (env list, error) result
(** All feasible typings over the width domain, in preference order, capped
    at [max_typings] (default 64). An empty list means the constraints are
    unsatisfiable within the domain. *)

val classes : Ast.transform -> (string list list, error) result
(** Groups of program values and abstract constants that are forced to share
    one type, in first-occurrence order. Used by the C++ code generator's
    unification-based type reconstruction (§4). *)
