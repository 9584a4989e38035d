open Ir

type scalar = Poison | Val of Bitvec.t
type outcome = Ub | Ret of scalar
type undef_policy = Zero | Random of Random.State.t

exception Hit_ub

module S = Semantics.Make (Semantics.Bitvec_algebra)

let resolve_undef policy w =
  match policy with
  | Zero -> Bitvec.zero w
  | Random st -> Bitvec.make ~width:w (Random.State.int64 st Int64.max_int)

let run ?(policy = Zero) f args =
  if List.length args <> List.length f.params then
    Error "argument count mismatch"
  else if
    not
      (List.for_all2 (fun (_, w) a -> Bitvec.width a = w) f.params args)
  then Error "argument width mismatch"
  else
    match validate f with
    | Error e -> Error e
    | Ok () ->
        (* Every SSA value is a concrete carrier bit pattern with its
           definedness and poison-freedom, the SMT encoding's triple read
           over bit-vectors. Table-1 definedness is a property of the
           carrier values alone, so e.g. division by a zero divisor is UB
           no matter how poisoned the dividend is. *)
        let env : (string, (Bitvec.t, bool) Semantics.ival) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter2
          (fun (n, _) a -> Hashtbl.replace env n (S.Inst.of_value a))
          f.params args;
        let value v =
          match v with
          | Const c -> S.Inst.of_value c
          | Undef w -> S.Inst.of_value (resolve_undef policy w)
          | Var n -> Hashtbl.find env n
        in
        let eval_def d =
          match d.inst with
          | Binop (op, attrs, a, b) -> S.Inst.binop op attrs (value a) (value b)
          | Icmp (c, a, b) -> S.Inst.icmp c (value a) (value b)
          | Select (c, a, b) -> S.Inst.select (value c) (value a) (value b)
          | Conv (conv, a) -> S.Inst.conv conv (value a) d.width
          | Freeze a ->
              let v = value a in
              if v.poison_free then v else S.Inst.of_value (Bitvec.zero d.width)
        in
        (try
           List.iter
             (fun d ->
               let v = eval_def d in
               if not v.defined then raise Hit_ub;
               Hashtbl.replace env d.name v)
             f.body;
           let r = value f.ret in
           Ok (Ret (if r.poison_free then Val r.value else Poison))
         with Hit_ub -> Ok Ub)

let refines src tgt =
  match (src, tgt) with
  | Ub, _ -> true
  | Ret Poison, Ret _ -> true
  | Ret Poison, Ub -> false
  | Ret (Val _), Ub -> false
  | Ret (Val x), Ret (Val y) -> Bitvec.equal x y
  | Ret (Val _), Ret Poison -> false
