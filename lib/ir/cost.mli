(** A static cost model for IR, standing in for hardware execution time in
    the §6.4 "execution time of compiled code" experiment (see DESIGN.md:
    SPEC hardware runs are replaced by this model plus interpreter step
    counts). Weights approximate relative instruction latencies. *)

val binop_cost : Ir.binop -> int
(** The latency weight of a binary operator, as {!inst_cost} charges it;
    lint's cost rules read it too. *)

val inst_cost : Ir.inst -> int
val func_cost : Ir.func -> int
(** Sum over the body. Lower is better; the optimizer should not increase
    it. *)
