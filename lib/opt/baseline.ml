(* Constant folding over the straight-line IR. A fold on constant operands
   is the instruction's value over bit-vectors, taken only where Table 1
   says it is defined, so the fold itself is a refinement; poison needs no
   check, since a constant refines it. *)

module S = Semantics.Make (Semantics.Bitvec_algebra)

let fold_def (d : Ir.def) : Ir.value option =
  let const v = match v with Ir.Const c -> Some c | Ir.Var _ | Ir.Undef _ -> None in
  match d.inst with
  | Ir.Binop (op, _, a, b) -> (
      match (op, const a, const b) with
      | _, Some x, Some y ->
          if S.defined op x y then Some (Ir.Const (S.binop op x y)) else None
      (* A few InstSimplify-style identities on one constant operand,
         beyond what the Alive corpus covers (commuted positions). *)
      | Ir.Add, Some z, _ when Bitvec.is_zero z -> Some b
      | Ir.Mul, Some o, _ when Bitvec.equal o (Bitvec.one d.width) -> Some b
      | Ir.And, Some m, _ when Bitvec.is_all_ones m -> Some b
      | Ir.Or, Some z, _ when Bitvec.is_zero z -> Some b
      | Ir.Xor, Some z, _ when Bitvec.is_zero z -> Some b
      | _ -> None)
  | Ir.Icmp (c, a, b) -> (
      match (const a, const b) with
      | Some x, Some y -> Some (Ir.Const (S.icmp c x y))
      | _ ->
          if a = b && const a = None then
            (* icmp eq %x, %x and friends; x may be poison, and folding to a
               constant refines poison. *)
            match c with
            | Ir.Eq | Ir.Uge | Ir.Ule | Ir.Sge | Ir.Sle ->
                Some (Ir.Const (Bitvec.of_bool true))
            | Ir.Ne | Ir.Ugt | Ir.Ult | Ir.Sgt | Ir.Slt ->
                Some (Ir.Const (Bitvec.of_bool false))
          else None)
  | Ir.Select (c, a, b) -> (
      match const c with
      | Some cv -> Some (if Bitvec.is_true cv then a else b)
      | None -> if a = b then Some a else None)
  | Ir.Conv (conv, a) ->
      Option.map (fun x -> Ir.Const (S.conv conv x d.width)) (const a)
  | Ir.Freeze a -> ( match const a with Some _ -> Some a | None -> None)

let fold_constants f =
  let rec go f count =
    match
      List.find_map
        (fun (d : Ir.def) ->
          match fold_def d with Some v -> Some (d.Ir.name, v) | None -> None)
        f.Ir.body
    with
    | Some (name, v) -> go (Ir.substitute f name v) (count + 1)
    | None -> (f, count)
  in
  go f 0

let run ~rules f =
  let rec go f stats =
    let f1, s1 = Pass.run ~rules f in
    let f2, folds = fold_constants f1 in
    let stats = Pass.merge_stats stats s1 in
    if folds = 0 then (Pass.dce f2, stats) else go (Pass.dce f2) stats
  in
  go f []
