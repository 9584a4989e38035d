(* The concrete-IR facade over the reduced product: every value of a
   straight-line function gets a [Domain.t] — strictly at least as precise
   as the known-bits-only [Ir.Analysis], since known bits are one
   component of the product. The optimizer's precondition evaluator
   ([Opt.Concrete]) reads instruction operands through it. A def's domain
   is computed from its operands' domains when it is first read and then
   memoized, so a query costs the operand cone it reaches, not the
   function. *)

type env = { func : Ir.func; vals : (string, Domain.t) Hashtbl.t }

(* Values only: the analysis never reads definedness or poison. *)
module S = Semantics.Make (Domain_algebra.Full)

let rec value_domain (env : env) (v : Ir.value) : Domain.t =
  match v with
  | Ir.Const c -> Domain.singleton c
  | Ir.Undef w -> Domain.top w
  | Ir.Var n -> (
      match Hashtbl.find_opt env.vals n with
      | Some d -> d
      | None ->
          let value = value_domain env in
          let dom =
            match Ir.def_of env.func n with
            | None -> Domain.top (Ir.value_width env.func v)
            | Some d -> (
                match d.Ir.inst with
                | Ir.Binop (op, _, a, b) -> S.binop op (value a) (value b)
                | Ir.Icmp (c, a, b) -> S.icmp c (value a) (value b)
                | Ir.Select (c, a, b) -> S.select (value c) (value a) (value b)
                | Ir.Conv (c, a) -> S.conv c (value a) d.Ir.width
                | Ir.Freeze v -> value v)
          in
          Hashtbl.replace env.vals n dom;
          dom)

let analyze (f : Ir.func) : env = { func = f; vals = Hashtbl.create 16 }
