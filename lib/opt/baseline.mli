(** The stand-in for full InstCombine in the §6.4 comparison.

    The paper compares stock LLVM (all ~1,028 InstCombine transformations)
    against LLVM+Alive (only the 334 translated ones): the latter compiles
    faster but produces slower code. Our corpus plays the translated set;
    this module supplies the extra optimization power of the untranslated
    remainder — chiefly constant folding / InstSimplify-style rewrites,
    hand-coded directly on the IR. *)

val fold_constants : Ir.func -> Ir.func * int
(** One pass of constant folding plus trivial simplifications; returns the
    rewrite count. A fold is the instruction's {!Semantics} value, taken
    only where Table 1 says it is defined (a constant refines poison). *)

val run : rules:Matcher.rule list -> Ir.func -> Ir.func * Pass.stats
(** The "full" pass: alternates the Alive rule pass with constant folding
    until a fixpoint. *)
