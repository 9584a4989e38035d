open Ir

(* Relative latencies in the spirit of LLVM's TargetTransformInfo defaults:
   bitwise and addition 1, multiplication 4, division and remainder 20. *)
let binop_cost = function
  | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr -> 1
  | Mul -> 4
  | Udiv | Sdiv | Urem | Srem -> 20

let inst_cost = function
  | Binop (op, _, _, _) -> binop_cost op
  | Icmp _ -> 1
  | Select _ -> 1
  | Conv _ -> 1
  | Freeze _ -> 0

let func_cost f = List.fold_left (fun acc d -> acc + inst_cost d.inst) 0 f.body
