(* The compiled matcher: the verified ruleset fused into one discrimination
   tree over opcodes and operand shapes, so matching a candidate definition
   is a single trie walk plus a handful of exact [Matcher.match_root]
   checks instead of an O(rules) scan. This is the native twin of what the
   generated C++ pass of §4 is after the C++ compiler is done with it: a
   decision tree on the root opcode and the shapes below it.

   Soundness contract: the trie is a pure pre-filter. It may return
   candidates that do not match (attributes, repeated variables, constant
   values and preconditions are not encoded), but it must never miss a
   rule that [Matcher.match_at] would accept. Final acceptance always
   runs [Matcher.match_root] in registry order, so the compiled path
   picks the same rule with the same bindings as the per-rule scan — by
   construction, not by luck. *)

open Alive.Ast

(* --- Shape tokens ---

   A pattern is flattened to its pre-order token sequence. A token
   constrains one operand of the subject; a [PAny] (free pattern variable)
   stands for a whole operand subtree. *)

type kind =
  | KBinop of Ir.binop
  | KIcmp of Ir.cond
  | KSelect
  | KConv of Ir.conv

type ptoken =
  | PInst of kind  (* a source-template temporary with this opcode *)
  | PConst  (* any IR constant; the value is checked by [match_at] *)
  | PUndef
  | PAny  (* free template variable: matches any operand *)

(* --- Pattern flattening --- *)

exception Unsupported

let ast_kind (i : Alive.Ast.inst) =
  match i with
  | Binop (op, _, _, _) -> KBinop (ir_binop op)
  | Icmp (c, _, _) -> KIcmp (ir_cond c)
  | Select _ -> KSelect
  | Conv (c, _, _) -> (
      match ir_conv c with Some c -> KConv c | None -> raise Unsupported)
  | Copy _ | Alloca _ | Load _ | Gep _ -> raise Unsupported

(* Pre-order tokens of a rule's source template, unfolding the DAG from
   the root (exactly the traversal [Matcher.match_root] performs), plus the
   deepest operand level reached (root = level 0). *)
let flatten_pattern (rule : Matcher.rule) =
  let defs = rule.Matcher.src_defs in
  let toks = ref [] and depth = ref 0 in
  let emit t = toks := t :: !toks in
  let rec def name level =
    let inst = List.assoc name defs in
    let k = ast_kind inst in
    emit (PInst k);
    List.iter (operand (level + 1)) (operands_of_inst inst)
  and operand level (top : toperand) =
    if level > !depth then depth := level;
    match top.op with
    | Var n when List.mem_assoc n defs -> def n level
    | Var _ -> emit PAny
    | Undef -> emit PUndef
    | ConstOp _ -> emit PConst
  in
  def rule.Matcher.template_root 0;
  (List.rev !toks, !depth)

(* --- The trie --- *)

(* A node's children, one per token. *)
type node = {
  mutable accept : int list;  (* rule indices, ascending registry order *)
  mutable any : node option;
  mutable const : node option;
  mutable undef : node option;
  mutable insts : (kind * node) list;
}

let new_node () =
  { accept = []; any = None; const = None; undef = None; insts = [] }

type t = {
  rules : Matcher.rule array;
  rule_list : Matcher.rule list;  (* original list, registry order *)
  root : node;
  residual : int list;
      (* rules the flattener could not compile (always candidates) *)
  max_depth : int;  (* deepest pattern operand level; bounds the walk *)
  nodes : int;
  cyclic : Matcher.rule list;
      (* the rules in a cyclic SCC of the target-feeds rewrite graph *)
}

let build rule_list =
  let rules = Array.of_list rule_list in
  let root = new_node () in
  let nodes = ref 1 in
  let residual = ref [] and max_depth = ref 0 in
  let child node tok =
    let existing =
      match tok with
      | PAny -> node.any
      | PConst -> node.const
      | PUndef -> node.undef
      | PInst k -> List.assoc_opt k node.insts
    in
    match existing with
    | Some c -> c
    | None ->
        let c = new_node () in
        incr nodes;
        (match tok with
        | PAny -> node.any <- Some c
        | PConst -> node.const <- Some c
        | PUndef -> node.undef <- Some c
        | PInst k -> node.insts <- (k, c) :: node.insts);
        c
  in
  Array.iteri
    (fun i rule ->
      match flatten_pattern rule with
      | exception (Unsupported | Not_found) -> residual := i :: !residual
      | toks, depth ->
          if depth > !max_depth then max_depth := depth;
          let node = List.fold_left child root toks in
          node.accept <- node.accept @ [ i ])
    rules;
  {
    rules;
    rule_list;
    root;
    residual = List.rev !residual;
    max_depth = !max_depth;
    nodes = !nodes;
    cyclic =
      List.concat_map
        (List.map (fun v -> rules.(v)))
        (Matcher.cyclic_sccs rules);
  }

let rule_list t = t.rule_list
let max_depth t = t.max_depth
let node_count t = t.nodes

let in_cycle t name =
  List.exists (fun (r : Matcher.rule) -> String.equal r.rule_name name) t.cyclic

let cyclic_count t = List.length t.cyclic

(* --- Matching --- *)

type ctx = {
  tree : t;
  mutable func : Ir.func;
  defs : (string, Ir.def) Hashtbl.t;
}

let context tree (func : Ir.func) =
  let defs = Hashtbl.create (List.length func.Ir.body * 2) in
  List.iter (fun (d : Ir.def) -> Hashtbl.replace defs d.Ir.name d) func.Ir.body;
  { tree; func; defs }

let update ctx func ~removed ~defs =
  List.iter (Hashtbl.remove ctx.defs) removed;
  List.iter (fun (d : Ir.def) -> Hashtbl.replace ctx.defs d.Ir.name d) defs;
  ctx.func <- func

let find_def ctx name = Hashtbl.find_opt ctx.defs name

(* The subject operands a walk has yet to consume, in pre-order, each with
   its level (root = 0). *)
type pending = Done | Next of Ir.value * int * pending

let same_kind k (i : Ir.inst) =
  match (k, i) with
  | KBinop op, Ir.Binop (op', _, _, _) -> op = op'
  | KIcmp c, Ir.Icmp (c', _, _) -> c = c'
  | KSelect, Ir.Select _ -> true
  | KConv c, Ir.Conv (c', _) -> c = c'
  | (KBinop _ | KIcmp _ | KSelect | KConv _), _ -> false

(* Rule indices whose shape can match at [root], ascending registry order.
   The walk follows the trie's edges over the subject DAG itself: a [PAny]
   edge skips an operand without looking at it, and an operand is looked
   up only when an instruction edge inspects it. An operand deeper than
   any pattern reaches, a parameter or an unknown opcode matches [PAny]
   only. Every trie node is reached by one token sequence, so the accept
   lists collected are disjoint. *)
let candidate_indices ctx (root : Ir.def) =
  let max_depth = ctx.tree.max_depth in
  let acc = ref [] in
  let rec walk node = function
    | Done -> (
        match node.accept with [] -> () | accept -> acc := accept :: !acc)
    | Next (v, level, rest) -> (
        (match node.any with Some c -> walk c rest | None -> ());
        match v with
        | Ir.Const _ -> (
            match node.const with Some c -> walk c rest | None -> ())
        | Ir.Undef _ -> (
            match node.undef with Some c -> walk c rest | None -> ())
        | Ir.Var n -> (
            match node.insts with
            | _ :: _ as insts when level <= max_depth -> (
                match Hashtbl.find_opt ctx.defs n with
                | Some d -> expand insts d.Ir.inst (level + 1) rest
                | None -> ())
            | _ -> ()))
  (* Follow the edge for instruction [i], its operands (at [level]) next. *)
  and expand insts i level rest =
    match insts with
    | [] -> ()
    | (k, c) :: more -> (
        if not (same_kind k i) then expand more i level rest
        else
          match i with
          | Ir.Binop (_, _, a, b) | Ir.Icmp (_, a, b) ->
              walk c (Next (a, level, Next (b, level, rest)))
          | Ir.Select (cnd, a, b) ->
              walk c (Next (cnd, level, Next (a, level, Next (b, level, rest))))
          | Ir.Conv (_, a) | Ir.Freeze a -> walk c (Next (a, level, rest)))
  in
  expand ctx.tree.root.insts root.Ir.inst 1 Done;
  match (!acc, ctx.tree.residual) with
  | [], res -> res
  | [ accept ], [] -> accept
  | accepts, res -> List.sort_uniq Int.compare (res @ List.concat accepts)

let candidates ctx root =
  List.map (fun i -> ctx.tree.rules.(i)) (candidate_indices ctx root)

let match_rule ctx rule (root : Ir.def) =
  Matcher.match_root rule ~find:(find_def ctx) ctx.func root

let match_def ctx (root : Ir.def) =
  List.find_map
    (fun i ->
      let rule = ctx.tree.rules.(i) in
      match match_rule ctx rule root with
      | Ok m -> Some (rule, m)
      | Error _ -> None)
    (candidate_indices ctx root)
