(** A CDCL SAT solver in the MiniSat lineage: two-watched-literal propagation,
    first-UIP conflict analysis with clause learning, VSIDS decision heuristic
    with phase saving, Luby restarts, and activity-based learnt-clause
    deletion. Incremental: clauses added after a [solve] join the instance,
    which the SMT layer's CEGAR loop uses to refine its outer context. *)

type t

(** {1 Literals} *)

type lit = private int
(** A literal is a variable with a polarity, packed in an int. *)

val mk_lit : int -> bool -> lit
(** [mk_lit v sign] is [v] if [sign] and [¬v] otherwise. *)

val neg : lit -> lit
val var : lit -> int
val is_pos : lit -> bool
val pp_lit : Format.formatter -> lit -> unit

(** {1 Solver} *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause. Adding the empty clause (or clauses that close off the last
    model of a variable at level 0) makes the instance trivially UNSAT. *)

type budget_reason = Conflicts | Deadline
(** Why a budgeted [solve] gave up: the conflict limit ran out, or the
    wall-clock deadline passed. *)

exception Budget_exceeded of budget_reason
(** Raised by {!solve} when a budget runs out. The solver is left at
    decision level 0 and remains usable. *)

val solve : ?conflict_limit:int -> ?deadline:float -> t -> bool
(** [solve s] is [true] iff the clauses are satisfiable. The solver can be
    re-used: later [add_clause] and [solve] calls see all previously added
    clauses. The call spends at most
    [conflict_limit] conflicts: each restart searches with at most the
    conflicts left, and the conflict past the limit raises
    [Budget_exceeded Conflicts]. [deadline] is an absolute
    wall-clock time ([Unix.gettimeofday] scale); it is sampled every 128
    conflicts and at every restart, so enforcement granularity is the time
    the instance takes to hit 128 conflicts. *)

val value : t -> lit -> bool
(** Model value of a literal after a [solve] that returned [true]. Variables
    irrelevant to satisfaction default to their saved phase. *)

val export : t -> int * lit list list
(** [(nvars, clauses)] snapshot of the instance for DIMACS dumping: the
    level-0 facts as unit clauses followed by the problem clauses. Learnt
    clauses are omitted (they are implied). *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  clauses : int;  (** problem clauses currently held *)
  learnts : int;  (** learnt clauses currently held *)
  vars : int;
}
(** Solver telemetry. Counters are cumulative since creation; clause and
    variable counts are the current sizes. *)

val stats : t -> stats
