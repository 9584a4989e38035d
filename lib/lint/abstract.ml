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
   Constant expressions and preconditions are [Constlang]'s, read over the
   abstract algebra of either mode; this module supplies the leaves. *)

open Alive.Ast
module Dom = Alive_absint.Domain

type av = Dom.t

(* ---- Three-valued (Kleene) logic, re-exported from the domain ---- *)

type tribool = Dom.tribool = True | False | Unknown

let tri_not = Dom.tri_not

let known_value (d : av) = Dom.is_singleton d

(* ---- Environment: template value name → abstract value ---- *)

type env = { width : int; kb_only : bool; vals : (string, av) Hashtbl.t }

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

module Kb = Alive.Constlang.Make (Alive.Constlang.Domain_algebra (Kb_transfer))

let clamp env (d : av) = if env.kb_only then Kb_transfer.clamp d else d

let dom_binop env op w (da : av) (db : av) =
  if env.kb_only then Kb_transfer.binop op w da db else Dom.binop op w da db

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
  try
    if env.kb_only then Kb.cexpr (leaves env) ~width:w e
    else Alive.Constlang.Abstract.cexpr (leaves env) ~width:w e
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

let eval_icmp env cond a b =
  let w =
    match (operand_width a, operand_width b) with
    | Some w, _ | None, Some w -> w
    | None, None -> env.width
  in
  let da = eval_operand env ~w a and db = eval_operand env ~w b in
  Alive_absint.Query.tri_cond (Alive_opt.Matcher.ir_cond cond) da db

(* The abstract value of one instruction, given an environment holding its
   operands. Shared by the source interpretation below and the
   target-statically-poison lint rule. *)
let eval_inst env ~w inst : av =
  match inst with
  | Binop (op, _, a, b) ->
      let da = eval_operand env ~w a and db = eval_operand env ~w b in
      dom_binop env (Alive_opt.Matcher.ir_binop op) w da db
  | Icmp (cond, a, b) -> (
      match eval_icmp env cond a b with
      | True -> Dom.singleton (Bitvec.one 1)
      | False -> Dom.singleton (Bitvec.zero 1)
      | Unknown -> Dom.top 1)
  | Select (c, a, b) -> (
      let dc = eval_operand env ~w:1 c in
      let da = eval_operand env ~w a and db = eval_operand env ~w b in
      match known_value dc with
      | Some v when Bitvec.is_true v -> da
      | Some _ -> db
      | None -> Dom.join da db)
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
      let da = eval_operand env ~w:ws a in
      match cv with
      | Zext -> if ws > w then Dom.top w else clamp env (Dom.zext da w)
      | Sext -> if ws > w then Dom.top w else clamp env (Dom.sext da w)
      | Trunc -> if w > ws then Dom.top w else clamp env (Dom.trunc da w)
      | Bitcast | Ptrtoint | Inttoptr -> Dom.top w)
  | Copy a -> eval_operand env ~w a
  | Alloca _ | Load _ | Gep _ -> Dom.top w

(* Abstractly execute the source pattern at analysis width [width]: inputs
   and abstract constants are ⊤, each definition gets the transfer of its
   instruction. Statements are processed in order (templates are SSA). *)
let env_of_source ?(kb_only = false) ~width (stmts : stmt list) =
  let env = { width; kb_only; vals = Hashtbl.create 16 } in
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
   immediately undefined or poison under the LLVM semantics: division or
   remainder by zero, or a shift by at least the bit width. Evaluated over
   the source environment, so a target instruction feeding on matched
   values inherits their constraints. *)
let inst_always_poison env ~w inst : tribool =
  match inst with
  | Binop (op, _, _, b) -> (
      let db = eval_operand env ~w b in
      match op with
      | UDiv | SDiv | URem | SRem ->
          Dom.tri_eq db (Dom.singleton (Bitvec.zero w))
      | Shl | LShr | AShr ->
          (* poison iff shift amount ≥ w *)
          tri_not (Dom.tri_ult db (Dom.singleton (Bitvec.of_int ~width:w w)))
      | Add | Sub | Mul | And | Or | Xor -> False)
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
  try
    if env.kb_only then Kb.pred (leaves env) p
    else Alive.Constlang.Abstract.pred (leaves env) p
  with Alive.Constlang.Unsupported _ -> Unknown
