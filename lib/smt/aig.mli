(** Hash-consed AND-inverter graphs with two-level structural rewriting,
    used as a simplification stage between [Lower] and CNF. Literals are
    [2·node + complement]; node 0 is constant false, so [false_ = 0] and
    [true_ = 1] (AIGER numbering). CNF is emitted from the reduced graph
    cone by cone as Tseitin clauses, recognizing MUX/XOR shapes as single
    gates. *)

type lit = int
type t

val false_ : lit
val true_ : lit
val not_ : lit -> lit

val create : unit -> t
val input : t -> lit
(** Fresh combinational input. *)

val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val iff_ : t -> lit -> lit -> lit
val ite_ : t -> lit -> lit -> lit -> lit
val maj3 : t -> lit -> lit -> lit -> lit

type stats = {
  n_inputs : int;
  n_ands : int;  (** distinct AND nodes after rewriting/strashing *)
  n_requests : int;  (** raw [and_] requests before rewriting *)
}

val stats : t -> stats

val emit :
  t ->
  false_lit:Alive_sat.Solver.lit ->
  fresh:(unit -> Alive_sat.Solver.lit) ->
  clause:(Alive_sat.Solver.lit list -> unit) ->
  lit ->
  Alive_sat.Solver.lit
(** Emit CNF for the cone of the given literal, incrementally: each node's
    clauses, both directions of its definition, go out once, and nodes an
    earlier root already emitted are reused. *)

val sat_lit_opt : t -> lit -> Alive_sat.Solver.lit option
(** SAT literal of an emitted node, if its cone was ever emitted. *)

val to_aiger : t -> outputs:lit list -> string
(** AIGER ASCII ("aag") rendering of the whole graph. *)
