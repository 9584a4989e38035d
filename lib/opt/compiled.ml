(* The compiled matcher: the verified ruleset fused into one discrimination
   tree over opcodes and operand shapes, so matching a candidate definition
   is a single trie walk plus a handful of exact [Matcher.match_at] checks
   instead of an O(rules) scan. This is the native twin of what the
   generated C++ pass of §4 is after the C++ compiler is done with it: a
   decision tree on the root opcode and the shapes below it.

   Soundness contract: the trie is a pure pre-filter. It may return
   candidates that do not match (attributes, repeated variables, constant
   values and preconditions are not encoded), but it must never miss a
   rule that [Matcher.match_at] would accept. Final acceptance always
   re-runs [Matcher.match_at] in registry order, so the compiled path
   picks the same rule with the same bindings as the per-rule scan — by
   construction, not by luck. *)

open Alive.Ast

(* --- Shape tokens ---

   Patterns and subjects are flattened to pre-order token sequences. A
   pattern token constrains the aligned subject token; a [PAny] edge
   (free pattern variable) skips one whole subject subtree using the
   precomputed subtree-size table. *)

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

type stoken =
  | SInst of kind
  | SConst
  | SUndef
  | SLeaf
      (* a parameter, a depth-truncated instruction, or an opcode no
         pattern can name (freeze): only [PAny] matches *)

let kind_arity = function
  | KBinop _ | KIcmp _ -> 2
  | KSelect -> 3
  | KConv _ -> 1

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
   the root (exactly the traversal [Matcher.match_at] performs), plus the
   deepest operand level reached (root = level 0). *)
let flatten_pattern (rule : Matcher.rule) =
  let defs = def_insts rule.Matcher.transform.src in
  let root =
    match Alive.Ast.root_of rule.Matcher.transform.src with
    | Some r -> r
    | None -> raise Unsupported
  in
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
  def root 0;
  (Array.of_list (List.rev !toks), !depth)

(* --- The trie --- *)

type node = {
  mutable accept : int list;  (* rule indices, ascending registry order *)
  mutable edges : (ptoken * node) list;
}

let new_node () = { accept = []; edges = [] }

type t = {
  rules : Matcher.rule array;
  rule_list : Matcher.rule list;  (* original list, registry order *)
  root : node;
  residual : int list;
      (* rules the flattener could not compile (always candidates) *)
  max_depth : int;  (* deepest pattern operand level; bounds flattening *)
  nodes : int;
  cyclic : (string, unit) Hashtbl.t;
      (* rule names in a cyclic SCC of the target-feeds rewrite graph *)
}

let build rule_list =
  let rules = Array.of_list rule_list in
  let root = new_node () in
  let nodes = ref 1 in
  let residual = ref [] and max_depth = ref 0 in
  Array.iteri
    (fun i rule ->
      match flatten_pattern rule with
      | exception (Unsupported | Not_found) -> residual := i :: !residual
      | toks, depth ->
          if depth > !max_depth then max_depth := depth;
          let node = ref root in
          Array.iter
            (fun tok ->
              match List.assoc_opt tok !node.edges with
              | Some child -> node := child
              | None ->
                  let child = new_node () in
                  incr nodes;
                  !node.edges <- (tok, child) :: !node.edges;
                  node := child)
            toks;
          !node.accept <- !node.accept @ [ i ])
    rules;
  {
    rules;
    rule_list;
    root;
    residual = List.rev !residual;
    max_depth = !max_depth;
    nodes = !nodes;
    cyclic =
      (let members = Hashtbl.create 16 in
       List.iter
         (List.iter (fun v ->
              Hashtbl.replace members rules.(v).Matcher.rule_name ()))
         (Matcher.cyclic_sccs rules);
       members);
  }

let rule_list t = t.rule_list
let max_depth t = t.max_depth
let node_count t = t.nodes
let in_cycle t name = Hashtbl.mem t.cyclic name
let cyclic_count t = Hashtbl.length t.cyclic

(* --- Subject flattening and matching --- *)

type ctx = {
  tree : t;
  mutable func : Ir.func;
  defs : (string, Ir.def) Hashtbl.t;
  buf : stoken array ref;  (* scratch, grown on demand *)
}

let context tree (func : Ir.func) =
  let defs = Hashtbl.create (List.length func.Ir.body * 2) in
  List.iter (fun (d : Ir.def) -> Hashtbl.replace defs d.Ir.name d) func.Ir.body;
  { tree; func; defs; buf = ref (Array.make 64 SLeaf) }

let update ctx func ~removed ~defs =
  List.iter (Hashtbl.remove ctx.defs) removed;
  List.iter (fun (d : Ir.def) -> Hashtbl.replace ctx.defs d.Ir.name d) defs;
  ctx.func <- func

let find_def ctx name = Hashtbl.find_opt ctx.defs name

let ir_kind (i : Ir.inst) =
  match i with
  | Ir.Binop (op, _, _, _) -> Some (KBinop op)
  | Ir.Icmp (c, _, _) -> Some (KIcmp c)
  | Ir.Select _ -> Some KSelect
  | Ir.Conv (c, _) -> Some (KConv c)
  | Ir.Freeze _ -> None

(* Flatten the subject DAG below [root] into ctx.buf, truncating operand
   recursion at the compiled max pattern level: tokens deeper than any
   pattern token can only ever be skipped by a [PAny] subtree skip, so an
   opaque leaf is equivalent and keeps the token count bounded by
   (max arity)^(max depth) regardless of function size. Returns the token
   count. *)
let flatten_subject ctx (root : Ir.def) =
  let pos = ref 0 in
  let emit tok =
    let buf = !(ctx.buf) in
    let buf =
      if !pos < Array.length buf then buf
      else begin
        let bigger = Array.make (2 * Array.length buf) SLeaf in
        Array.blit buf 0 bigger 0 (Array.length buf);
        ctx.buf := bigger;
        bigger
      end
    in
    buf.(!pos) <- tok;
    incr pos
  in
  let rec def (d : Ir.def) level =
    match ir_kind d.Ir.inst with
    | None -> emit SLeaf
    | Some k ->
        emit (SInst k);
        List.iter (operand (level + 1)) (Ir.operands_of d.Ir.inst)
  and operand level (v : Ir.value) =
    match v with
    | Ir.Const _ -> emit SConst
    | Ir.Undef _ -> emit SUndef
    | Ir.Var n -> (
        if level > ctx.tree.max_depth then emit SLeaf
        else
          match Hashtbl.find_opt ctx.defs n with
          | Some d -> def d level
          | None -> emit SLeaf)
  in
  def root 0;
  !pos

let stoken_arity = function
  | SInst k -> kind_arity k
  | SConst | SUndef | SLeaf -> 0

(* Rule indices whose shape can match at [root], ascending registry
   order. *)
let candidate_indices ctx (root : Ir.def) =
  let n = flatten_subject ctx root in
  let toks = !(ctx.buf) in
  (* Subtree sizes: children of i start at i+1; the k-th child starts
     right after its elder siblings. *)
  let size = Array.make n 1 in
  for i = n - 1 downto 0 do
    let s = ref 1 in
    for _ = 1 to stoken_arity toks.(i) do
      s := !s + size.(i + !s)
    done;
    size.(i) <- !s
  done;
  let acc = ref [] in
  let rec walk node i =
    if i = n then acc := node.accept :: !acc
    else
      List.iter
        (fun (tok, child) ->
          match tok with
          | PAny -> walk child (i + size.(i))
          | PConst -> if toks.(i) = SConst then walk child (i + 1)
          | PUndef -> if toks.(i) = SUndef then walk child (i + 1)
          | PInst k -> (
              match toks.(i) with
              | SInst k' -> if k = k' then walk child (i + 1)
              | SConst | SUndef | SLeaf -> ()))
        node.edges
  in
  walk ctx.tree.root 0;
  match (!acc, ctx.tree.residual) with
  | [], [] -> []
  | [], res -> res
  | accepts, res -> List.sort_uniq Int.compare (res @ List.concat accepts)

let candidates ctx root =
  List.map (fun i -> ctx.tree.rules.(i)) (candidate_indices ctx root)

let match_def ctx (root : Ir.def) =
  let rec first = function
    | [] -> None
    | i :: rest -> (
        let rule = ctx.tree.rules.(i) in
        match Matcher.match_at rule ctx.func root.Ir.name with
        | Some m -> Some (rule, m)
        | None -> first rest)
  in
  first (candidate_indices ctx root)
