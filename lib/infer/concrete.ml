(* Concrete semantics for precondition inference: the constant/predicate
   language read over bit-vectors ([Constlang.Concrete], the same
   definition the verifier reads over terms), plus lowering of both
   templates to executable IR under one typing and one binding of abstract
   constants, so Interp can label concrete examples. *)

open Alive.Ast
module Typing = Alive.Typing
module Vcgen = Alive.Vcgen
module Scoping = Alive.Scoping
module Constlang = Alive.Constlang

type binds = (string * Bitvec.t) list

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let leaves env binds : (Bitvec.t, bool) Constlang.leaves =
  let lookup name ~width:_ =
    match List.assoc_opt name binds with
    | Some v -> v
    | None -> fail "unbound name %s" name
  in
  {
    constant = lookup;
    value = lookup;
    width_of = (fun name -> Some (Typing.width_of_value env name));
    default_width = None;
    bitwidth = None;
    one_use = (fun _ -> true);
  }

let eval_cexpr env ~binds ~width e =
  try Constlang.Concrete.cexpr (leaves env binds) ~width e
  with Constlang.Unsupported m -> raise (Eval_error m)

let eval_pred env ~binds p =
  try Constlang.Concrete.pred (leaves env binds) p
  with Constlang.Unsupported m -> raise (Eval_error m)

(* --- Template lowering --- *)

let value_width env = Typing.width_of_value env

let lower env ~binds (info : Scoping.info) (t : transform) =
  try
    let root =
      match info.root with
      | Some r -> r
      | None -> fail "store-rooted template (no root value)"
    in
    let rename sigma n =
      match List.assoc_opt n sigma with Some n' -> n' | None -> n
    in
    let value_of sigma ~width (o : toperand) =
      match o.op with
      | Var n -> Ir.Var (rename sigma n)
      | ConstOp e -> Ir.Const (eval_cexpr env ~binds ~width e)
      | Undef -> Ir.Undef width
    in
    let op_width (o : toperand) =
      match o.op with
      | Var n -> Some (value_width env n)
      | ConstOp e -> Constlang.width (leaves env binds) e
      | Undef -> None
    in
    let either_width a b =
      match op_width a with
      | Some w -> w
      | None -> (
          match op_width b with
          | Some w -> w
          | None -> fail "cannot type an operand pair of bare literals")
    in
    (* [name] is the IR name (possibly renamed); the typing env only knows
       [orig], so widths resolve through it. *)
    let lower_def sigma ~orig name inst =
      let w = value_width env orig in
      let inst' =
        match inst with
        | Binop (op, attrs, a, b) ->
            Ir.Binop
              ( ir_binop op,
                List.map ir_attr attrs,
                value_of sigma ~width:w a,
                value_of sigma ~width:w b )
        | Icmp (c, a, b) ->
            let ow = either_width a b in
            Ir.Icmp
              (ir_cond c, value_of sigma ~width:ow a, value_of sigma ~width:ow b)
        | Select (c, a, b) ->
            Ir.Select
              ( value_of sigma ~width:1 c,
                value_of sigma ~width:w a,
                value_of sigma ~width:w b )
        | Conv (cv, a, _) -> (
            match (op_width a, ir_conv cv) with
            | Some ow, Some c -> Ir.Conv (c, value_of sigma ~width:ow a)
            | Some _, None ->
                fail "conversion %s is outside the executable fragment"
                  (conv_name cv)
            | None, _ -> fail "conversion of a bare literal operand")
        | Copy a ->
            (* [x | 0]: preserves value and poison, executable in Ir. *)
            Ir.Binop (Ir.Or, [], value_of sigma ~width:w a, Ir.Const (Bitvec.zero w))
        | Alloca _ | Load _ | Gep _ -> fail "memory instruction"
      in
      { Ir.name; width = w; inst = inst' }
    in
    let defs_of stmts name_of =
      (* [name_of] decides the IR name for each definition; shadowing
         renames thread through subsequent operands via [sigma]. *)
      let sigma = ref [] in
      let defs =
        List.map
          (fun stmt ->
            match stmt with
            | Def (n, _, inst) ->
                let d = lower_def !sigma ~orig:n (name_of n) inst in
                if d.Ir.name <> n then sigma := (n, d.Ir.name) :: !sigma;
                d
            | Store _ -> fail "store instruction"
            | Unreachable -> fail "unreachable")
          stmts
      in
      (defs, !sigma)
    in
    let params =
      List.map (fun n -> (n, value_width env n)) info.inputs
    in
    let src_defs, _ = defs_of t.src Fun.id in
    (* Keep only the source defs a given set of roots transitively needs:
       unrelated source instructions may have their own UB, which would
       wrongly abort the run. *)
    let prune defs roots =
      let needed = Hashtbl.create 8 in
      List.iter (fun r -> Hashtbl.replace needed r ()) roots;
      List.iter
        (fun (d : Ir.def) ->
          if Hashtbl.mem needed d.Ir.name then
            List.iter
              (function
                | Ir.Var v -> Hashtbl.replace needed v ()
                | Ir.Const _ | Ir.Undef _ -> ())
              (Ir.operands_of d.Ir.inst))
        (List.rev defs);
      List.filter (fun (d : Ir.def) -> Hashtbl.mem needed d.Ir.name) defs
    in
    let src_names = List.map (fun (d : Ir.def) -> d.Ir.name) src_defs in
    let src_func =
      {
        Ir.fname = t.name ^ ".src";
        params;
        body = prune src_defs [ root ];
        ret = Ir.Var root;
      }
    in
    (* Target defs that shadow a source def or an input are renamed; their
       operands, resolved through the accumulated renaming, still read the
       source computation until the shadowing definition runs. *)
    let taken = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace taken n ()) src_names;
    List.iter (fun (n, _) -> Hashtbl.replace taken n ()) params;
    let fresh_name n =
      if not (Hashtbl.mem taken n) then begin
        Hashtbl.replace taken n ();
        n
      end
      else begin
        let n' = ref (n ^ "~t") in
        while Hashtbl.mem taken !n' do
          n' := !n' ^ "~"
        done;
        Hashtbl.replace taken !n' ();
        !n'
      end
    in
    let tgt_defs, tgt_sigma = defs_of t.tgt fresh_name in
    let tgt_ret = rename tgt_sigma root in
    let referenced =
      List.concat_map
        (fun (d : Ir.def) ->
          List.filter_map
            (function Ir.Var v -> Some v | _ -> None)
            (Ir.operands_of d.Ir.inst))
        tgt_defs
    in
    let needed_src =
      List.filter (fun n -> List.mem n src_names) (tgt_ret :: referenced)
    in
    let tgt_func =
      {
        Ir.fname = t.name ^ ".tgt";
        params;
        body = prune src_defs needed_src @ tgt_defs;
        ret = Ir.Var tgt_ret;
      }
    in
    match (Ir.validate src_func, Ir.validate tgt_func) with
    | Ok (), Ok () -> Ok (src_func, tgt_func)
    | Error e, _ -> Error ("lowered source is ill-formed: " ^ e)
    | _, Error e -> Error ("lowered target is ill-formed: " ^ e)
  with
  | Eval_error m -> Error m
  | Vcgen.Unsupported m -> Error m
  | Invalid_argument m -> Error m
  | Not_found -> Error "name outside the typing environment"

(* --- Example classification --- *)

type label = Pos | Neg | Skip

let func_mentions_undef (f : Ir.func) =
  let is_undef = function Ir.Undef _ -> true | _ -> false in
  is_undef f.Ir.ret
  || List.exists
       (fun (d : Ir.def) -> List.exists is_undef (Ir.operands_of d.Ir.inst))
       f.Ir.body

let classify ~src ~tgt args =
  match
    (Interp.run ~policy:Interp.Zero src args, Interp.run ~policy:Interp.Zero tgt args)
  with
  | Ok (Interp.Ub | Interp.Ret Interp.Poison), Ok _ ->
      (* Anything refines a UB/poison source, so the example says nothing
         about where the transform usefully fires; counting it as positive
         would reward preconditions that only admit broken sources. *)
      Skip
  | Ok s, Ok t ->
      if Interp.refines s t then Pos
      else if func_mentions_undef src || func_mentions_undef tgt then
        (* Pinning undef to zero makes the run deterministic but can turn a
           refinement that holds for *some* undef choice into a spurious
           mismatch; do not trust such examples as negatives. *)
        Skip
      else Neg
  | _ -> Skip
