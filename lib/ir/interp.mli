(** Concrete interpreter for the IR with the paper's §2.4 semantics of
    undefined behavior, read from {!Semantics} over bit-vectors — the same
    definition the VC generator reads over terms:

    - true UB (division by zero, [INT_MIN / -1], over-shift, §2.4 Table 1)
      aborts execution;
    - [poison] taints every dependent computation (Table 2 attributes); a
      [select] is poison when its condition or either arm is;
    - [undef] denotes a set of bit patterns; each {e use} may see a
      different value, chosen by the policy below;
    - [freeze] (not in the 2015 paper) pins poison to zero.

    Used for differential testing of the optimizer (a rewritten function
    must refine the original), for inference's example labels, and for the
    §6.4 run-time experiment. *)

type scalar = Poison | Val of Bitvec.t

type outcome =
  | Ub  (** the function executed true undefined behavior *)
  | Ret of scalar

(** How [undef] uses resolve. [Zero] pins them (deterministic); [Random st]
    draws a fresh pattern per use, as the compiler is allowed to. *)
type undef_policy = Zero | Random of Random.State.t

val run :
  ?policy:undef_policy -> Ir.func -> Bitvec.t list -> (outcome, string) result
(** Execute on concrete arguments (one per parameter, matching widths).
    [Error] reports malformed functions or argument mismatches. *)

val refines : outcome -> outcome -> bool
(** [refines src tgt]: is observing [tgt] allowed when the original program
    observed [src]? UB in the source allows anything; poison allows any
    value; a defined source value requires the same value, except that an
    undef-free target must match exactly. (With the [Zero] policy both runs
    are deterministic, making this a sound one-sided test.) *)
