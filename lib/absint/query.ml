(* The concrete-IR facade over the reduced product: one forward pass
   assigns every value of a straight-line function a [Domain.t] — strictly
   at least as precise as the known-bits-only [Ir.Analysis], since known
   bits are one component of the product. The optimizer's precondition
   evaluator ([Opt.Concrete]) reads instruction operands through it. *)

type env = { func : Ir.func; vals : (string, Domain.t) Hashtbl.t }

(* Values only: the analysis never reads definedness or poison. *)
module S = Semantics.Make (Domain_algebra.Full)

let value_domain (env : env) (v : Ir.value) : Domain.t =
  match v with
  | Ir.Const c -> Domain.singleton c
  | Ir.Undef w -> Domain.top w
  | Ir.Var n -> (
      match Hashtbl.find_opt env.vals n with
      | Some d -> d
      | None -> Domain.top (Ir.value_width env.func v))

let analyze (f : Ir.func) : env =
  let env = { func = f; vals = Hashtbl.create 16 } in
  let value = value_domain env in
  List.iter
    (fun (d : Ir.def) ->
      let dom =
        match d.Ir.inst with
        | Ir.Binop (op, _, a, b) -> S.binop op (value a) (value b)
        | Ir.Icmp (c, a, b) -> S.icmp c (value a) (value b)
        | Ir.Select (c, a, b) -> S.select (value c) (value a) (value b)
        | Ir.Conv (c, a) -> S.conv c (value a) d.Ir.width
        | Ir.Freeze v -> value v
      in
      Hashtbl.replace env.vals d.Ir.name dom)
    f.Ir.body;
  env
