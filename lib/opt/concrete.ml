open Alive.Ast
module Constlang = Alive.Constlang
module Dom = Alive_absint.Domain

type env = {
  func : Ir.func;
  consts : (string * Bitvec.t) list;
  values : (string * Ir.value) list;
}

(* One [Query] environment per function, memoized by physical identity:
   the matcher evaluates many predicates against the same (immutable)
   function while scanning its rules, and the environment memoizes every
   domain it has computed. Domain-local so Engine.map workers never share
   the cell. *)
let query_cache :
    (Ir.func * Alive_absint.Query.env) option ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref None)

let query_env f =
  let cache = Stdlib.Domain.DLS.get query_cache in
  match !cache with
  | Some (g, q) when g == f -> q
  | _ ->
      let q = Alive_absint.Query.analyze f in
      cache := Some (f, q);
      q

let unbound name = raise (Constlang.Unsupported ("unbound name " ^ name))

(* Leaf resolution shared by both readings: a bound constant, or a value
   bound to an IR constant, is that constant; its width, or the width of
   the IR value a template value is bound to, is what fixes an
   expression's width. *)
let leaves env ~resolve ~one_use =
  {
    Constlang.constant =
      (fun name ~width:_ ->
        match List.assoc_opt name env.consts with
        | Some c -> resolve (Ir.Const c)
        | None -> unbound name);
    value =
      (fun name ~width:_ ->
        match List.assoc_opt name env.values with
        | Some v -> resolve v
        | None -> unbound name);
    width_of =
      (fun name ->
        match List.assoc_opt name env.consts with
        | Some c -> Some (Bitvec.width c)
        | None ->
            Option.map (Ir.value_width env.func) (List.assoc_opt name env.values));
    default_width = None;
    bitwidth = None;
    one_use;
  }

let concrete_leaves env =
  leaves env
    ~resolve:(function
      | Ir.Const c -> c
      | Ir.Var _ | Ir.Undef _ ->
          raise (Constlang.Unsupported "a symbolic operand"))
    ~one_use:(fun _ -> true)

let cexpr env ~width e =
  try Some (Constlang.Concrete.cexpr (concrete_leaves env) ~width e)
  with Constlang.Unsupported _ -> None

let cexpr_width env e = Constlang.width (concrete_leaves env) e

(* A value bound to an instruction reads as its domain in the function's
   analysis, computed over its operand cone when evaluation first reaches
   it. *)
let abstract_value env = function
  | Ir.Const c -> Dom.singleton c
  | Ir.Undef w -> Dom.top w
  | Ir.Var _ as v -> Alive_absint.Query.value_domain (query_env env.func) v

(* [hasOneUse] is the use count of the instruction a value is bound to;
   anything else has no uses to count. *)
let one_use env = function
  | Cval name -> (
      match List.assoc_opt name env.values with
      | Some (Ir.Var n) ->
          Dom.tri_of_bool
            (Option.value ~default:0 (Hashtbl.find_opt (Ir.uses_of env.func) n)
            = 1)
      | Some (Ir.Const _ | Ir.Undef _) -> Dom.True
      | None -> Dom.Unknown)
  | _ -> Dom.True

let tri_pred env p =
  try
    Constlang.Abstract.pred
      (leaves env ~resolve:(abstract_value env) ~one_use:(one_use env))
      p
  with Constlang.Unsupported _ -> Dom.Unknown

let pred env p = tri_pred env p = Dom.True
