(* Abstract interpretation over Alive *templates* (Core.Ast), as opposed to
   [Alive_absint.Query], which works on concrete IR. Template inputs and
   abstract constants concretize to anything, so they start at ⊤; literals
   are singletons; instruction transfer reuses the reduced product of known
   bits × ranges × congruence from [Alive_absint.Domain].

   Everything is evaluated at a caller-chosen *analysis width*. The DSL is
   width-polymorphic, so a single width proves nothing by itself — the lint
   rules re-run the evaluation at several widths and only report facts on
   which all widths agree. [width(...)] always evaluates to ⊤ for the same
   reason.

   [~kb_only:true] collapses every computed value to its known-bits
   component, reproducing the pre-range precision; the rules compare the
   two modes to attribute a finding to the range/congruence domains.
   Instructions are [Semantics]' and constant expressions and
   preconditions [Constlang]'s, both read over the abstract algebra of
   either mode; this module supplies the leaves and the template widths. *)

open Alive.Ast
module Dom = Alive_absint.Domain

type av = Dom.t

(* ---- Three-valued (Kleene) logic, re-exported from the domain ---- *)

type tribool = Dom.tribool = True | False | Unknown

(* ---- Two precision modes ---- *)

(* The known-bits-only transfer. It must be the raw known-bits one:
   collapsing the product transfer's result would smuggle range facts back
   into the known bits through [Dom.of_kb]'s reduction (e.g. urem by 3
   bounds the result to [0,2], which reduction turns into known-zero high
   bits). [Dom.of_kb] re-derives the ranges the old known-bits linter
   computed on the fly, so the collapsed mode matches its precision
   exactly. *)
module Kb_transfer = struct
  let binop op w (da : av) (db : av) =
    Dom.of_kb w (Analysis.transfer_binop op w da.Dom.kb db.Dom.kb)

  let clamp (d : av) = Dom.of_kb d.Dom.width d.Dom.kb
end

(* One precision mode: the constant language and the instructions read
   over one abstract algebra. *)
module type MODE = sig
  module C : Alive.Constlang.S with type v = av and type b = tribool
  module S : Semantics.S with type v = av and type b = tribool
end

module Mode (A : Semantics.ALGEBRA with type v = av and type b = tribool) =
struct
  module C = Alive.Constlang.Make (A)
  module S = Semantics.Make (A)
end

module Full = Mode (Alive_absint.Domain_algebra.Full)
module Kb_only = Mode (Alive_absint.Domain_algebra.Make (Kb_transfer))

(* ---- Environment: template value name → abstract value ---- *)

type env = { width : int; mode : (module MODE); vals : (string, av) Hashtbl.t }

let lookup env ~w name =
  match Hashtbl.find_opt env.vals name with
  | Some d when d.Dom.width = w -> d
  | Some _ | None -> Dom.top w

(* Abstract constants concretize freely, and [width(...)] is width-
   polymorphic: never assume the analysis width is the real one. Only
   template values whose width the source fixes have one; anything else
   lives at the analysis width. *)
let leaves env : (av, tribool) Alive.Constlang.leaves =
  {
    constant = (fun _ ~width -> Dom.top width);
    value = (fun name ~width -> lookup env ~w:width name);
    width_of =
      (fun name -> Option.map (fun d -> d.Dom.width) (Hashtbl.find_opt env.vals name));
    default_width = Some env.width;
    bitwidth = Some (fun _ ~width -> Dom.top width);
    (* hasOneUse and friends are dynamic facts *)
    one_use = (fun _ -> Unknown);
  }

let eval_cexpr env ~w e =
  let (module M) = env.mode in
  try M.C.cexpr (leaves env) ~width:w e
  with Alive.Constlang.Unsupported _ -> Dom.top w

(* ---- Source-pattern abstract interpretation ---- *)

let ty_width = function Some (Int w) -> Some w | _ -> None

let operand_width (t : toperand) = ty_width t.ty

let inst_width ~default ty inst =
  match inst with
  | Icmp _ -> 1
  | Conv (_, _, to_ty) -> (
      match ty_width to_ty with
      | Some w -> w
      | None -> Option.value ~default (ty_width ty))
  | _ -> (
      match ty_width ty with
      | Some w -> w
      | None -> (
          match List.find_map operand_width (operands_of_inst inst) with
          | Some w -> w
          | None -> default))

let eval_operand env ~w (t : toperand) =
  match t.op with
  | Var name -> lookup env ~w name
  | Undef -> Dom.top w
  | ConstOp e -> eval_cexpr env ~w e

(* The abstract value of one instruction, given an environment holding its
   operands. Shared by the source interpretation below and the
   target-statically-poison lint rule. *)
let eval_inst env ~w inst : av =
  let (module M) = env.mode in
  match inst with
  | Binop (op, _, a, b) ->
      M.S.binop (ir_binop op) (eval_operand env ~w a) (eval_operand env ~w b)
  | Icmp (cond, a, b) ->
      let w =
        match (operand_width a, operand_width b) with
        | Some w, _ | None, Some w -> w
        | None, None -> env.width
      in
      M.S.icmp (ir_cond cond) (eval_operand env ~w a) (eval_operand env ~w b)
  | Select (c, a, b) ->
      M.S.select (eval_operand env ~w:1 c) (eval_operand env ~w a)
        (eval_operand env ~w b)
  | Conv (cv, a, _) -> (
      let ws =
        match operand_width a with
        | Some w' -> w'
        | None -> (
            match a.op with
            | Var n -> (
                match Hashtbl.find_opt env.vals n with
                | Some d -> d.Dom.width
                | None -> env.width)
            | _ -> env.width)
      in
      (* An analysis width can contradict the template's conversion. *)
      let fits = match cv with Zext | Sext -> ws <= w | _ -> w <= ws in
      match ir_conv cv with
      | Some c when fits -> M.S.conv c (eval_operand env ~w:ws a) w
      | _ -> Dom.top w)
  | Copy a -> eval_operand env ~w a
  | Alloca _ | Load _ | Gep _ -> Dom.top w

(* Abstractly execute the source pattern at analysis width [width]: inputs
   and abstract constants are ⊤, each definition gets the transfer of its
   instruction. Statements are processed in order (templates are SSA). *)
let env_of_source ?(kb_only = false) ~width (stmts : stmt list) =
  let mode = if kb_only then (module Kb_only : MODE) else (module Full) in
  let env = { width; mode; vals = Hashtbl.create 16 } in
  List.iter
    (fun st ->
      match st with
      | Store _ | Unreachable -> ()
      | Def (name, ty, inst) ->
          let w = inst_width ~default:width ty inst in
          Hashtbl.replace env.vals name (eval_inst env ~w inst))
    stmts;
  env

(* ---- Statically poisonous instructions (for the target lint rule) ---- *)

(* [True] when every concretization of the instruction's operands makes it
   undefined: the negation of its Table 1 definedness. Evaluated over the
   source environment, so a target instruction feeding on matched values
   inherits their constraints. *)
let inst_always_poison env ~w inst : tribool =
  match inst with
  | Binop (op, _, a, b) ->
      let (module M) = env.mode in
      let da = eval_operand env ~w a and db = eval_operand env ~w b in
      Dom.tri_not (M.S.defined (ir_binop op) da db)
  | Icmp _ | Select _ | Conv _ | Copy _ | Alloca _ | Load _ | Gep _ -> False

(* Per-target-statement poison verdicts: interpret the source pattern, then
   extend the environment definition by definition through the target,
   asking [inst_always_poison] before each binding. Indices follow the
   statement list, so the caller can map them to source lines. *)
let target_poison ~width src tgt =
  let env = env_of_source ~width src in
  List.mapi
    (fun i st ->
      match st with
      | Store _ | Unreachable -> (i, False)
      | Def (name, ty, inst) ->
          let w = inst_width ~default:width ty inst in
          let v = inst_always_poison env ~w inst in
          Hashtbl.replace env.vals name (eval_inst env ~w inst);
          (i, v))
    tgt

(* ---- Predicates ---- *)

let eval_pred env p =
  let (module M) = env.mode in
  try M.C.pred (leaves env) p with Alive.Constlang.Unsupported _ -> Unknown
