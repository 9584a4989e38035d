(* The concrete-IR facade over the reduced product: one forward pass
   assigns every value of a straight-line function a [Domain.t] — strictly
   at least as precise as the known-bits-only [Ir.Analysis], since known
   bits are one component of the product. The optimizer's precondition
   evaluator ([Opt.Concrete]) reads instruction operands through it. *)

type env = { func : Ir.func; vals : (string, Domain.t) Hashtbl.t }

let tri_cond (c : Ir.cond) (a : Domain.t) (b : Domain.t) : Domain.tribool =
  match c with
  | Ir.Eq -> Domain.tri_eq a b
  | Ir.Ne -> Domain.tri_not (Domain.tri_eq a b)
  | Ir.Ult -> Domain.tri_ult a b
  | Ir.Ule -> Domain.tri_not (Domain.tri_ult b a)
  | Ir.Ugt -> Domain.tri_ult b a
  | Ir.Uge -> Domain.tri_not (Domain.tri_ult a b)
  | Ir.Slt -> Domain.tri_slt a b
  | Ir.Sle -> Domain.tri_not (Domain.tri_slt b a)
  | Ir.Sgt -> Domain.tri_slt b a
  | Ir.Sge -> Domain.tri_not (Domain.tri_slt a b)

let analyze (f : Ir.func) : env =
  let vals : (string, Domain.t) Hashtbl.t = Hashtbl.create 16 in
  let value (v : Ir.value) =
    match v with
    | Ir.Const c -> Domain.singleton c
    | Ir.Undef w -> Domain.top w
    | Ir.Var n -> (
        match Hashtbl.find_opt vals n with
        | Some d -> d
        | None -> Domain.top (Ir.value_width f v))
  in
  List.iter
    (fun (d : Ir.def) ->
      let w = d.Ir.width in
      let dom =
        match d.Ir.inst with
        | Ir.Binop (op, _, a, b) -> Domain.binop op w (value a) (value b)
        | Ir.Icmp (c, a, b) -> (
            match tri_cond c (value a) (value b) with
            | Domain.True -> Domain.singleton (Bitvec.one 1)
            | Domain.False -> Domain.singleton (Bitvec.zero 1)
            | Domain.Unknown -> Domain.top 1)
        | Ir.Select (c, a, b) -> (
            match Domain.is_singleton (value c) with
            | Some cv ->
                if Bitvec.is_true cv then value a else value b
            | None -> Domain.join (value a) (value b))
        | Ir.Conv (Ir.Zext, v) -> Domain.zext (value v) w
        | Ir.Conv (Ir.Sext, v) -> Domain.sext (value v) w
        | Ir.Conv (Ir.Trunc, v) -> Domain.trunc (value v) w
        | Ir.Freeze v -> value v
      in
      Hashtbl.replace vals d.Ir.name dom)
    f.Ir.body;
  { func = f; vals }

let value_domain (env : env) (v : Ir.value) : Domain.t =
  match v with
  | Ir.Const c -> Domain.singleton c
  | Ir.Undef w -> Domain.top w
  | Ir.Var n -> (
      match Hashtbl.find_opt env.vals n with
      | Some d -> d
      | None -> Domain.top (Ir.value_width env.func v))
