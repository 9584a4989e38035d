(* Per-transform lint rules: everything that can be decided by looking at a
   single parsed transformation, without SMT. Corpus-level rules (duplicate
   names, shadowing, rewrite cycles) live in Driver. *)

open Alive.Ast
module D = Alive.Diagnostics

(* The DSL is width-polymorphic; a fact about the precondition is only
   reported when every analysis width agrees, which filters out artifacts
   of literal truncation at any single width. *)
let analysis_widths = [ 4; 8; 16; 32 ]

(* ---- Helpers over the AST ---- *)

let rec conjuncts = function
  | Pand (a, b) -> conjuncts a @ conjuncts b
  | Ptrue -> []
  | p -> [ p ]

let rec cexpr_consts e acc =
  match e with
  | Cabs n -> n :: acc
  | Cint _ | Cbool _ | Cval _ -> acc
  | Cun (_, a) -> cexpr_consts a acc
  | Cbin (_, a, b) -> cexpr_consts a (cexpr_consts b acc)
  | Cfun (_, args) -> List.fold_left (fun acc a -> cexpr_consts a acc) acc args

let rec pred_consts p acc =
  match p with
  | Ptrue -> acc
  | Pcmp (_, a, b) -> cexpr_consts a (cexpr_consts b acc)
  | Pcall (_, args) ->
      List.fold_left (fun acc a -> cexpr_consts a acc) acc args
  | Pand (a, b) | Por (a, b) -> pred_consts a (pred_consts b acc)
  | Pnot a -> pred_consts a acc

let operand_consts (t : toperand) acc =
  match t.op with ConstOp e -> cexpr_consts e acc | Var _ | Undef -> acc

let stmt_consts st acc =
  match st with
  | Def (_, _, inst) ->
      List.fold_left
        (fun acc o -> operand_consts o acc)
        acc (operands_of_inst inst)
  | Store (v, p) -> operand_consts v (operand_consts p acc)
  | Unreachable -> acc

let stmts_consts stmts =
  List.sort_uniq String.compare
    (List.fold_left (fun acc st -> stmt_consts st acc) [] stmts)

let rec cexpr_has_leaf e =
  (* a leaf whose value the matcher supplies at rewrite time *)
  match e with
  | Cabs _ | Cval _ -> true
  | Cint _ | Cbool _ -> false
  | Cun (_, a) -> cexpr_has_leaf a
  | Cbin (_, a, b) -> cexpr_has_leaf a || cexpr_has_leaf b
  | Cfun ("width", _) -> true (* width-polymorphic, not a compile-time value *)
  | Cfun (_, args) -> List.exists cexpr_has_leaf args

let pred_literal_only p =
  match p with
  | Pcmp (_, a, b) -> not (cexpr_has_leaf a || cexpr_has_leaf b)
  | Pcall (_, args) -> not (List.exists cexpr_has_leaf args)
  | _ -> false

let pp_pred_str p = Format.asprintf "%a" pp_pred p

(* Line of the statement (by index) that mentions an abstract constant. *)
let const_line stmts line_of name =
  let rec find i = function
    | [] -> None
    | st :: rest ->
        if List.mem name (stmt_consts st []) then Some (line_of i)
        else find (i + 1) rest
  in
  find 0 stmts

(* ---- Family 1: dead / contradictory preconditions ---- *)

let check_precondition ~file (t : transform) =
  match conjuncts t.pre with
  | [] -> []
  | cs ->
      let envs =
        List.map (fun w -> Abstract.env_of_source ~width:w t.src) analysis_widths
      in
      (* Known-bits-only twin environments: a clause the full product
         decides but these do not is attributed to the range/congruence
         domains (separate rule names, so the report says which analysis
         earned the verdict). *)
      let kb_envs =
        List.map
          (fun w -> Abstract.env_of_source ~kb_only:true ~width:w t.src)
          analysis_widths
      in
      let where = D.span ?file (Alive.Ast.pre_line t.locs) in
      let decided es c =
        let vs = List.map (fun env -> Abstract.eval_pred env c) es in
        if List.for_all (fun v -> v = Abstract.True) vs then `True
        else if List.for_all (fun v -> v = Abstract.False) vs then `False
        else `Unknown
      in
      let verdict c =
        match decided envs c with
        | `Unknown -> `Unknown
        | `True -> if decided kb_envs c = `True then `True else `Range `True
        | `False ->
            if decided kb_envs c = `False then `False else `Range `False
      in
      let _, diags =
        List.fold_left
          (fun (seen, diags) c ->
            let txt = pp_pred_str c in
            let d =
              if List.mem c seen then
                Some
                  (D.make ~rule:"dead-precondition.duplicate"
                     ~severity:D.Warning ~where
                     ~hint:"remove the repeated clause"
                     (Printf.sprintf "precondition clause `%s` is repeated"
                        txt))
              else if pred_literal_only c then
                Some
                  (D.make ~rule:"dead-precondition.constant-fold"
                     ~severity:D.Warning ~where
                     ~hint:
                       "a clause without abstract constants or template \
                        values folds to a constant"
                     (Printf.sprintf
                        "precondition clause `%s` mentions no template value \
                         or constant; it is trivially %s"
                        txt
                        (match verdict c with
                        | `True | `Range `True -> "true"
                        | `False | `Range `False -> "false"
                        | `Unknown -> "constant")))
              else
                match verdict c with
                | `True ->
                    Some
                      (D.make ~rule:"dead-precondition.implied"
                         ~severity:D.Warning ~where
                         ~hint:"the clause can be removed"
                         (Printf.sprintf
                            "precondition clause `%s` is already implied by \
                             the source pattern"
                            txt))
                | `Range `True ->
                    Some
                      (D.make ~rule:"dead-precondition.range-implied"
                         ~severity:D.Warning ~where
                         ~hint:
                           "the clause can be removed (proved by the \
                            range/congruence domains; known bits alone \
                            cannot decide it)"
                         (Printf.sprintf
                            "precondition clause `%s` is already implied by \
                             the source pattern's value ranges"
                            txt))
                | `False ->
                    Some
                      (D.make ~rule:"dead-precondition.contradiction"
                         ~severity:D.Error ~where
                         ~hint:
                           "no concrete code can satisfy both the pattern \
                            and this clause"
                         (Printf.sprintf
                            "precondition clause `%s` contradicts the source \
                             pattern; the transformation is unmatchable"
                            txt))
                | `Range `False ->
                    Some
                      (D.make ~rule:"dead-precondition.range-contradiction"
                         ~severity:D.Error ~where
                         ~hint:
                           "no concrete code can satisfy both the pattern \
                            and this clause (proved by the range/congruence \
                            domains; known bits alone cannot decide it)"
                         (Printf.sprintf
                            "precondition clause `%s` contradicts the source \
                             pattern's value ranges; the transformation is \
                             unmatchable"
                            txt))
                | `Unknown -> None
            in
            (c :: seen, match d with Some d -> d :: diags | None -> diags))
          ([], []) cs
      in
      List.rev diags

(* ---- Family 2: cost / canonicality ---- *)

(* Ir.Cost's latency weights, plus weights for the memory fragment Ir.Cost
   never sees. *)
let inst_latency = function
  | Binop (op, _, _, _) -> Cost.binop_cost (ir_binop op)
  | Icmp _ | Select _ | Conv _ -> 1
  | Copy _ -> 0
  | Gep _ -> 1
  | Alloca _ | Load _ -> 4

let stmt_latency = function
  | Def (_, _, i) -> inst_latency i
  | Store _ -> 4
  | Unreachable -> 0

let stmt_count = function
  | Def (_, _, Copy _) -> 0 (* assignments disappear in SSA *)
  | Def _ | Store _ -> 1
  | Unreachable -> 0

let template_latency stmts = List.fold_left (fun a s -> a + stmt_latency s) 0 stmts
let template_count stmts = List.fold_left (fun a s -> a + stmt_count s) 0 stmts

let check_cost ~file ~canonical (t : transform) =
  if not canonical then
    (* anti-canonical entries are verified but deliberately cost-increasing *)
    []
  else
    let where = D.span ?file (Alive.Ast.tgt_line t.locs 0) in
    let sl = template_latency t.src and tl = template_latency t.tgt in
    let sc = template_count t.src and tc = template_count t.tgt in
    let lat =
      if tl > sl then
        [
          D.make ~rule:"cost-regression.latency" ~severity:D.Warning ~where
            ~hint:
              "a canonical rewrite should not produce slower code; mark the \
               entry anti-canonical or reverse it"
            (Printf.sprintf
               "target latency %d exceeds source latency %d (Ir.Cost weights)"
               tl sl);
        ]
      else []
    in
    let cnt =
      if tc > sc then
        [
          D.make ~rule:"cost-regression.count" ~severity:D.Warning ~where
            ~hint:"the rewrite grows the instruction count"
            (Printf.sprintf
               "target emits %d instructions where the source had %d" tc sc);
        ]
      else []
    in
    lat @ cnt

(* ---- Family 4: well-formedness ---- *)

let check_scoping ~file (t : transform) =
  match Alive.Scoping.check t with
  | Ok _ -> []
  | Error msg ->
      [
        D.make ~rule:"well-formed.scoping" ~severity:D.Error
          ~where:(D.span ?file t.locs.header_line)
          msg;
      ]

let check_constants ~file (t : transform) =
  let src = stmts_consts t.src in
  let tgt = stmts_consts t.tgt in
  let pre = List.sort_uniq String.compare (pred_consts t.pre []) in
  let bound n = List.mem n src in
  let unbound_tgt =
    List.filter_map
      (fun n ->
        if bound n then None
        else
          let line =
            Option.value
              ~default:t.locs.header_line
              (const_line t.tgt (Alive.Ast.tgt_line t.locs) n)
          in
          Some
            (D.make ~rule:"unused-var.unbound-const" ~severity:D.Error
               ~where:(D.span ?file line)
               ~hint:
                 "constants are bound by matching the source pattern; a \
                  constant that only appears in the target can never be \
                  instantiated"
               (Printf.sprintf
                  "target uses abstract constant %s, which the source \
                   pattern never binds"
                  n)))
      tgt
  in
  let pre_only =
    List.filter_map
      (fun n ->
        if bound n || List.mem n tgt then None
        else
          Some
            (D.make ~rule:"unused-var.pre-only-const" ~severity:D.Warning
               ~where:(D.span ?file (Alive.Ast.pre_line t.locs))
               ~hint:
                 "the optimizer can only evaluate preconditions over \
                  constants bound by the source match; this clause will \
                  never evaluate"
               (Printf.sprintf
                  "precondition references abstract constant %s, which the \
                   source pattern never binds"
                  n)))
      pre
  in
  let unused =
    List.filter_map
      (fun n ->
        if List.mem n tgt || List.mem n pre then None
        else
          let line =
            Option.value
              ~default:t.locs.header_line
              (const_line t.src (Alive.Ast.src_line t.locs) n)
          in
          Some
            (D.make ~rule:"unused-var.unused-const" ~severity:D.Info
               ~where:(D.span ?file line)
               ~hint:
                 "the constant still constrains the operand to be a \
                  constant; use a plain %var if any operand should match"
               (Printf.sprintf
                  "abstract constant %s is bound by the source but used \
                   neither in the precondition nor in the target"
                  n)))
      src
  in
  unbound_tgt @ pre_only @ unused

(* Width-annotated operands whose constant literals cannot be represented at
   that width (neither as an unsigned nor as a signed value). *)
let check_literal_widths ~file (t : transform) =
  let rec literals e acc =
    match e with
    | Cint n -> n :: acc
    | Cbool _ | Cabs _ | Cval _ -> acc
    | Cun (_, a) -> literals a acc
    | Cbin (_, a, b) -> literals a (literals b acc)
    | Cfun (_, args) -> List.fold_left (fun acc a -> literals a acc) acc args
  in
  let fits w n =
    if w >= 64 then true
    else
      Int64.compare n (Int64.neg (Int64.shift_left 1L (w - 1))) >= 0
      && Int64.compare n (Int64.shift_left 1L w) < 0
  in
  let check_operand ~line dw (o : toperand) acc =
    let w =
      match o.ty with Some (Int w) -> Some w | Some _ -> None | None -> dw
    in
    match (w, o.op) with
    | Some w, ConstOp e ->
        List.fold_left
          (fun acc n ->
            if fits w n then acc
            else
              D.make ~rule:"well-formed.literal-width" ~severity:D.Warning
                ~where:(D.span ?file line)
                ~hint:"the literal is silently truncated at this width"
                (Printf.sprintf "literal %Ld does not fit in i%d" n w)
              :: acc)
          acc (literals e [])
    | _ -> acc
  in
  let check_stmts stmts line_of acc =
    List.fold_left
      (fun (i, acc) st ->
        let line = line_of i in
        let acc =
          match st with
          | Def (_, ty, inst) ->
              let dw =
                match (inst, ty) with
                | Conv _, _ -> None (* operand width ≠ result width *)
                | Icmp _, _ ->
                    List.find_map
                      (fun (o : toperand) ->
                        match o.ty with Some (Int w) -> Some w | _ -> None)
                      (operands_of_inst inst)
                | _, Some (Int w) -> Some w
                | _ ->
                    List.find_map
                      (fun (o : toperand) ->
                        match o.ty with Some (Int w) -> Some w | _ -> None)
                      (operands_of_inst inst)
              in
              List.fold_left
                (fun acc o -> check_operand ~line dw o acc)
                acc (operands_of_inst inst)
          | Store (v, p) ->
              check_operand ~line None v (check_operand ~line None p acc)
          | Unreachable -> acc
        in
        (i + 1, acc))
      (0, acc) stmts
    |> snd
  in
  check_stmts t.src (Alive.Ast.src_line t.locs) []
  |> check_stmts t.tgt (Alive.Ast.tgt_line t.locs)
  |> List.rev

(* ---- Statically poisonous targets ---- *)

(* A target instruction that is immediately undefined or poison for every
   input the source pattern can match — division or remainder by a divisor
   the abstract domains pin to zero, or a shift by at least the bit width.
   Such a rewrite can never improve the program: either the transformation
   is wrong, or it only fires on inputs that were already undefined. As
   with the precondition rules, a verdict must hold at every analysis
   width to be reported. *)
let check_static_poison ~file (t : transform) =
  match
    List.map
      (fun w -> Abstract.target_poison ~width:w t.src t.tgt)
      analysis_widths
  with
  | [] -> []
  | first :: rest ->
      List.filter_map
        (fun (i, v) ->
          if
            v = Abstract.True
            && List.for_all
                 (fun per_width -> List.assoc i per_width = Abstract.True)
                 rest
          then
            Some
              (D.make ~rule:"static-poison.target" ~severity:D.Error
                 ~where:(D.span ?file (Alive.Ast.tgt_line t.locs i))
                 ~hint:
                   "the instruction is division by zero or an over-wide \
                    shift for every matched input; the rewrite can never \
                    produce a defined value"
                 "target instruction is statically poison or undefined for \
                  every input the source pattern matches")
          else None)
        first

(* ---- Vacuous preconditions ---- *)

(* Transformations proven correct with their precondition dropped
   entirely, so the hand-written clause restricts nothing. The lint pass
   stays SMT-free by design: this list is the cached result of the full
   verifier, re-derived and enforced by the vacuous-precondition property
   test (test_infer.ml) — change it there first when the corpus drifts. *)
let vacuous_preconditions = [ "AddSub:add-neg-const-is-sub" ]

let check_vacuous ~file (t : transform) =
  if t.pre <> Ptrue && List.mem t.name vacuous_preconditions then
    [
      D.make ~rule:"dead-precondition.vacuous" ~severity:D.Warning
        ~where:(D.span ?file (Alive.Ast.pre_line t.locs))
        ~hint:"drop the precondition: the rewrite is valid without it"
        "the whole precondition is vacuous: the transformation is correct \
         unconditionally";
    ]
  else []

(* ---- Entry point ---- *)

let check ?file ?(canonical = true) (t : transform) =
  List.concat
    [
      check_scoping ~file t;
      check_constants ~file t;
      check_literal_widths ~file t;
      check_precondition ~file t;
      check_static_poison ~file t;
      check_vacuous ~file t;
      check_cost ~file ~canonical t;
    ]
