open Alive.Ast

type rule = {
  rule_name : string;
  transform : Alive.Ast.transform;
  src_defs : (string * Alive.Ast.inst) list;
  template_root : string;
}

type match_result = {
  bindings : Concrete.env;
  root : string;
  find : string -> Ir.def option;
}

type failure = Shape | Precondition

let rule_of_transform (t : Alive.Ast.transform) =
  match Alive.Scoping.check t with
  | Error e -> Error e
  | Ok _ -> (
      let executable =
        let inst_ok = function
          | Binop _ | Icmp _ | Select _ | Copy _ -> true
          | Conv (c, _, _) -> Option.is_some (ir_conv c)
          | Alloca _ | Load _ | Gep _ -> false
        in
        let stmt_ok = function
          | Def (_, _, i) -> inst_ok i
          | Store _ | Unreachable -> false
        in
        List.for_all stmt_ok t.src && List.for_all stmt_ok t.tgt
        (* Source templates must be pure instruction DAGs; a Copy source
           would match anything. *)
        && List.for_all
             (function Def (_, _, Copy _) -> false | _ -> true)
             t.src
      in
      (* Scoping gives an executable source a root, and the target the
         same one. *)
      match root_of t.src with
      | Some root when executable ->
          Ok
            {
              rule_name = t.name;
              transform = t;
              src_defs = def_insts t.src;
              template_root = root;
            }
      | Some _ | None -> Error "outside the executable integer fragment")

let corpus_rules () =
  List.filter_map
    (fun (e : Alive_suite.Entry.t) ->
      if e.expected = Alive_suite.Entry.Expect_valid && e.canonical then
        Result.to_option (rule_of_transform (Alive_suite.Entry.parse e))
      else None)
    Alive_suite.Registry.all

(* --- Template-level unification ---

   Matches one template against another template (rather than against
   concrete IR), for corpus-level analyses: shadowing (source-of-A covers
   source-of-B) and rewrite-cycle edges (source-of-B matches target-of-A).
   The subject's free variables stay symbolic, so a match means "every
   concrete DAG produced/matched by the subject is matched by the
   pattern" — modulo preconditions, which the caller must consider.
   Conservative in the other direction: compound constant expressions only
   unify syntactically, so a non-match proves nothing. *)

type tmatch = {
  pat_defs : (string * Alive.Ast.inst) list;
  subj_defs : (string * Alive.Ast.inst) list;
  mutable vbind : (string * operand) list; (* pattern var -> subject operand *)
  mutable cbind : (string * cexpr) list; (* pattern Cabs -> subject cexpr *)
}

let operand_syntactic_equal (a : operand) (b : operand) = a = b

let bind_tvar st name op =
  match List.assoc_opt name st.vbind with
  | Some op' -> operand_syntactic_equal op op'
  | None ->
      st.vbind <- (name, op) :: st.vbind;
      true

let bind_tconst st name e =
  match List.assoc_opt name st.cbind with
  | Some e' -> e = e'
  | None ->
      st.cbind <- (name, e) :: st.cbind;
      true

(* Dereference subject-side copies: `%r = %t` with %t defined in the
   subject denotes %t's instruction after rewriting. *)
let rec deref_subject st name =
  match List.assoc_opt name st.subj_defs with
  | Some (Copy { op = Var n; _ }) when List.mem_assoc n st.subj_defs ->
      deref_subject st n
  | d -> (name, d)

(* Commutativity at the template level: `C + %x` must cover `%x + C`.
   Without this, [source_covers] and [target_feeds] judged commuted pairs
   asymmetrically — rule A shadowed rule B but not vice versa — which
   PR 6's symmetric [content_compare] fingerprint puts in the same
   equivalence class. Matching only one operand order under-reports
   shadowing and misses rewrite-cycle edges. *)
let commutative_binop = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | UDiv | SDiv | URem | SRem | Shl | LShr | AShr -> false

let commutative_cond = function
  | Ceq | Cne -> true
  | Cugt | Cuge | Cult | Cule | Csgt | Csge | Cslt | Csle -> false

(* Bindings are mutable; to try a second operand order after the first
   partially bound, snapshot and restore. *)
let with_backtrack st attempt =
  let vbind = st.vbind and cbind = st.cbind in
  attempt ()
  ||
  (st.vbind <- vbind;
   st.cbind <- cbind;
   false)

let rec tmatch_operand st (pat : toperand) (subj : toperand) =
  (* The pattern's type annotation must be at most as constraining. *)
  (match pat.ty with
  | None -> true
  | Some t -> ( match subj.ty with Some t' -> equal_typ t t' | None -> false))
  &&
  match pat.op with
  | Var n when List.mem_assoc n st.pat_defs -> (
      (* Pattern temporary: the subject operand must be an instruction of
         the subject template that matches the pattern's definition. *)
      match subj.op with
      | Var m when List.mem_assoc m st.subj_defs ->
          tmatch_def st n m && bind_tvar st n subj.op
      | Var _ | ConstOp _ | Undef -> false)
  | Var n -> bind_tvar st n subj.op
  | Undef -> subj.op = Undef
  | ConstOp (Cabs c) -> (
      match subj.op with ConstOp e -> bind_tconst st c e | Var _ | Undef -> false)
  | ConstOp (Cint k) -> (
      (* [Cint] and [Cbool] literals never unify: a signed literal [1]
         excludes i1 (§2.4) while [true] demands it. *)
      match subj.op with
      | ConstOp (Cint k') -> Int64.equal k k'
      | _ -> false)
  | ConstOp (Cbool b) -> (
      (* [true]/[false] demand i1; a subject integer literal stays
         width-polymorphic, so it is NOT covered by a boolean pattern. *)
      match subj.op with ConstOp (Cbool b') -> b = b' | _ -> false)
  | ConstOp pe -> (
      (* Compound constant expression: unify syntactically once the
         pattern's abstract constants are substituted. *)
      match subj.op with
      | ConstOp se ->
          let rec subst = function
            | Cabs c as e -> (
                match List.assoc_opt c st.cbind with Some e' -> e' | None -> e)
            | Cun (op, a) -> Cun (op, subst a)
            | Cbin (op, a, b) -> Cbin (op, subst a, subst b)
            | Cfun (f, args) -> Cfun (f, List.map subst args)
            | (Cint _ | Cbool _ | Cval _) as e -> e
          in
          subst pe = se
      | Var _ | Undef -> false)

and tmatch_def st pat_name subj_name =
  match List.assoc_opt pat_name st.vbind with
  | Some op -> operand_syntactic_equal op (Var subj_name)
  | None -> (
      let subj_name, subj_inst = deref_subject st subj_name in
      ignore subj_name;
      match (List.assoc_opt pat_name st.pat_defs, subj_inst) with
      | None, _ | _, None -> false
      | Some p, Some s -> (
          match (p, s) with
          | Binop (op, attrs, a, b), Binop (op', attrs', x, y) ->
              op = op'
              && List.for_all (fun at -> List.mem at attrs') attrs
              && (with_backtrack st (fun () ->
                      tmatch_operand st a x && tmatch_operand st b y)
                 || commutative_binop op
                    && with_backtrack st (fun () ->
                           tmatch_operand st a y && tmatch_operand st b x))
          | Icmp (c, a, b), Icmp (c', x, y) ->
              c = c'
              && (with_backtrack st (fun () ->
                      tmatch_operand st a x && tmatch_operand st b y)
                 || commutative_cond c
                    && with_backtrack st (fun () ->
                           tmatch_operand st a y && tmatch_operand st b x))
          | Select (c, a, b), Select (cx, x, y) ->
              tmatch_operand st c cx && tmatch_operand st a x
              && tmatch_operand st b y
          | Conv (cv, a, ty), Conv (cv', x, ty') ->
              cv = cv'
              && (match ty with
                 | None -> true
                 | Some t -> (
                     match ty' with Some t' -> equal_typ t t' | None -> false))
              && tmatch_operand st a x
          | (Binop _ | Icmp _ | Select _ | Conv _ | Copy _ | Alloca _
            | Load _ | Gep _), _ ->
              false))

let match_templates ~pat ~subj =
  match (Alive.Ast.root_of pat, Alive.Ast.root_of subj) with
  | Some pat_root, Some subj_root ->
      let st =
        {
          pat_defs = def_insts pat;
          subj_defs = def_insts subj;
          vbind = [];
          cbind = [];
        }
      in
      tmatch_def st pat_root subj_root
  | _ -> false

let source_covers a b =
  match_templates ~pat:a.transform.src ~subj:b.transform.src

let target_feeds a b =
  match_templates ~pat:b.transform.src ~subj:a.transform.tgt

(* Tarjan over the A→B "target of A feeds source of B" edges. *)
let cyclic_sccs (rules : rule array) =
  let n = Array.length rules in
  let edges =
    Array.init n (fun i ->
        List.filter
          (fun j -> target_feeds rules.(i) rules.(j))
          (List.init n Fun.id))
  in
  let index = Array.make n (-1)
  and low = Array.make n 0
  and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      edges.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !sccs
  |> List.filter (function
       | [ v ] -> List.mem v edges.(v) (* self-loop *)
       | _ :: _ :: _ -> true
       | [] -> false)
  |> List.map (List.sort Int.compare)

(* --- Matching ---

   A match reads the subject through [find], a name table of its
   function's definitions: the pass hands in its compiled context's
   index, [match_at] a scan of the body. *)

type mstate = {
  func : Ir.func;
  find : string -> Ir.def option;
  src_defs : (string * Alive.Ast.inst) list;
  mutable consts : (string * Bitvec.t) list;
  mutable values : (string * Ir.value) list;
}

(* [Ir.value_width] with definitions looked up in [find]. *)
let width_in ~find (func : Ir.func) = function
  | Ir.Var n -> (
      match List.assoc_opt n func.Ir.params with
      | Some w -> w
      | None -> (
          match find n with Some d -> d.Ir.width | None -> raise Not_found))
  | (Ir.Const _ | Ir.Undef _) as v -> Ir.value_width func v

let value_equal a b =
  match (a, b) with
  | Ir.Var x, Ir.Var y -> String.equal x y
  | Ir.Const x, Ir.Const y -> Bitvec.equal x y
  | Ir.Undef x, Ir.Undef y -> x = y
  | (Ir.Var _ | Ir.Const _ | Ir.Undef _), _ -> false

let bind_value st name v =
  match List.assoc_opt name st.values with
  | Some v' -> value_equal v v'
  | None ->
      st.values <- (name, v) :: st.values;
      true

let bind_const st name c =
  match List.assoc_opt name st.consts with
  | Some c' -> Bitvec.equal c c'
  | None ->
      st.consts <- (name, c) :: st.consts;
      true

let rec match_operand st (top : toperand) (v : Ir.value) ~width =
  (match top.ty with
  | Some (Int w) when w <> width -> false
  | Some (Ptr _ | Arr _) -> false
  | Some (Int _) | None -> true)
  &&
  match top.op with
  | Var name when List.mem_assoc name st.src_defs -> (
      (* A source temporary: the IR operand must be an instruction that
         matches the corresponding template definition. *)
      match v with
      | Ir.Var ir_name -> (
          match st.find ir_name with
          | Some d -> match_def st name d && bind_value st name v
          | None -> false)
      | Ir.Const _ | Ir.Undef _ -> false)
  | Var name -> bind_value st name v
  | Undef -> ( match v with Ir.Undef _ -> true | Ir.Var _ | Ir.Const _ -> false)
  | ConstOp e -> (
      match v with
      | Ir.Const c -> (
          match e with
          | Cabs name -> bind_const st name c
          | Cint n -> Bitvec.equal c (Bitvec.make ~width n)
          | Cbool b ->
              width = 1 && Bitvec.equal c (Bitvec.of_int ~width (if b then 1 else 0))
          | _ -> (
              (* A compound expression: evaluable only if its leaves are
                 already bound. *)
              let env =
                { Concrete.func = st.func; consts = st.consts; values = st.values }
              in
              match Concrete.cexpr env ~width e with
              | Some c' -> Bitvec.equal c c'
              | None -> false))
      | Ir.Var _ | Ir.Undef _ -> false)

and match_def st template_name (d : Ir.def) =
  (* If this template temporary is already bound, it must be to the same
     IR instruction. *)
  match List.assoc_opt template_name st.values with
  | Some v -> value_equal v (Ir.Var d.name)
  | None -> (
      match List.assoc_opt template_name st.src_defs with
      | None -> false
      | Some template_inst -> (
          match (template_inst, d.inst) with
          | Binop (op, attrs, a, b), Ir.Binop (op', attrs', x, y) ->
              ir_binop op = op'
              && List.for_all (fun at -> List.mem (ir_attr at) attrs') attrs
              && match_operand st a x ~width:d.width
              && match_operand st b y ~width:d.width
          | Icmp (c, a, b), Ir.Icmp (c', x, y) ->
              ir_cond c = c'
              &&
              let w = width_in ~find:st.find st.func x in
              match_operand st a x ~width:w && match_operand st b y ~width:w
          | Select (c, a, b), Ir.Select (cx, x, y) ->
              match_operand st c cx ~width:1
              && match_operand st a x ~width:d.width
              && match_operand st b y ~width:d.width
          | Conv (cv, a, _), Ir.Conv (cv', x) ->
              ir_conv cv = Some cv'
              && match_operand st a x ~width:(width_in ~find:st.find st.func x)
          | _ -> false))

let match_root (rule : rule) ~find func (root : Ir.def) =
  let st = { func; find; src_defs = rule.src_defs; consts = []; values = [] } in
  if not (match_def st rule.template_root root) then Error Shape
  else begin
    ignore (bind_value st rule.template_root (Ir.Var root.Ir.name));
    let env = { Concrete.func; consts = st.consts; values = st.values } in
    if Concrete.pred env rule.transform.pre then
      Ok { bindings = env; root = root.Ir.name; find }
    else Error Precondition
  end

let match_at rule func root_name =
  match Ir.def_of func root_name with
  | None -> None
  | Some root ->
      Result.to_option (match_root rule ~find:(Ir.def_of func) func root)

(* --- Rewriting --- *)

(* Shared by every domain that rewrites: [alive optimize --jobs N] runs
   [rewrite] on several [Engine.map] workers at once, and a lost update on
   a plain counter could mint one name twice in a function. *)
let counter = Atomic.make 0

let fresh_name () =
  Printf.sprintf "alive.%d" (1 + Atomic.fetch_and_add counter 1)

type replacement = Inst of Ir.def | Copy of Ir.value

type plan = { root : string; defs : Ir.def list; replacement : replacement }

let plan rule func (m : match_result) =
  let ( let* ) = Option.bind in
  let root_def =
    match m.find m.root with Some d -> d | None -> assert false
  in
  let tgt_root = rule.template_root in
  (* Values visible to target instructions: the match bindings plus target
     temporaries as they are created. *)
  let env = ref m.bindings in
  (* Widths of the definitions this rewrite creates, which are not yet part
     of [func]. *)
  let new_widths = ref [] in
  let value_of name = List.assoc_opt name !env.Concrete.values in
  let width_of_ir_value v =
    match v with
    | Ir.Var n -> (
        match List.assoc_opt n !new_widths with
        | Some w -> Some w
        | None -> (
            try Some (width_in ~find:m.find func v) with Not_found -> None))
    | Ir.Const _ | Ir.Undef _ -> Some (Ir.value_width func v)
  in
  let operand_value (top : toperand) ~width =
    match top.op with
    | Var name -> value_of name
    | Undef -> Some (Ir.Undef width)
    | ConstOp e ->
        let* c = Concrete.cexpr !env ~width e in
        Some (Ir.Const c)
  in
  let operand_width (top : toperand) =
    match top.op with
    | Var name ->
        let* v = value_of name in
        width_of_ir_value v
    | ConstOp e -> Concrete.cexpr_width !env e
    | Undef -> None
  in
  (* Emit target definitions in order; collect the new defs. *)
  let rec emit acc = function
    | [] -> Some (List.rev acc)
    | Def (name, _, inst) :: rest ->
        let is_root = String.equal name tgt_root in
        let* width =
          if is_root then Some root_def.Ir.width
          else
            match inst with
            | Binop (_, _, a, b) -> (
                match operand_width a with
                | Some w -> Some w
                | None -> operand_width b)
            | Icmp _ -> Some 1
            | Select (_, a, b) -> (
                match operand_width a with
                | Some w -> Some w
                | None -> operand_width b)
            | Conv (_, _, Some (Int w)) -> Some w
            | Conv (_, _, _) -> None
            | Copy a -> operand_width a
            | Alloca _ | Load _ | Gep _ -> None
        in
        let* ir_inst =
          match inst with
          | Binop (op, attrs, a, b) ->
              let* x = operand_value a ~width in
              let* y = operand_value b ~width in
              Some (`Inst (Ir.Binop (ir_binop op, List.map ir_attr attrs, x, y)))
          | Icmp (c, a, b) ->
              let* w =
                match operand_width a with
                | Some w -> Some w
                | None -> operand_width b
              in
              let* x = operand_value a ~width:w in
              let* y = operand_value b ~width:w in
              Some (`Inst (Ir.Icmp (ir_cond c, x, y)))
          | Select (c, a, b) ->
              let* cx = operand_value c ~width:1 in
              let* x = operand_value a ~width in
              let* y = operand_value b ~width in
              Some (`Inst (Ir.Select (cx, x, y)))
          | Conv (cv, a, _) ->
              let* conv = ir_conv cv in
              let* aw = operand_width a in
              let* x = operand_value a ~width:aw in
              Some (`Inst (Ir.Conv (conv, x)))
          | Copy a ->
              let* v = operand_value a ~width in
              Some (`Copy v)
          | Alloca _ | Load _ | Gep _ -> None
        in
        let ir_name = if is_root then root_def.Ir.name else fresh_name () in
        (match ir_inst with
        | `Inst i ->
            env :=
              {
                !env with
                Concrete.values =
                  (name, Ir.Var ir_name) :: !env.Concrete.values;
              };
            new_widths := (ir_name, width) :: !new_widths;
            emit ({ Ir.name = ir_name; width; inst = i } :: acc) rest
        | `Copy v ->
            env :=
              { !env with Concrete.values = (name, v) :: !env.Concrete.values };
            (* A copy emits no definition; a copy root's uses are
               substituted by the splice. *)
            emit acc rest)
    | (Store _ | Unreachable) :: _ -> None
  in
  let* new_defs = emit [] rule.transform.tgt in
  (* The root def is replaced if the target root is an instruction, or
     dropped with its uses substituted if the target root is a copy. *)
  let* replacement =
    match
      List.find_opt (fun (d : Ir.def) -> String.equal d.Ir.name m.root) new_defs
    with
    | Some r -> Some (Inst r)
    | None -> Option.map (fun v -> Copy v) (value_of tgt_root)
  in
  Some
    {
      root = m.root;
      defs =
        List.filter
          (fun (d : Ir.def) -> not (String.equal d.Ir.name m.root))
          new_defs;
      replacement;
    }

let splice ~dead func p =
  let keep (d : Ir.def) = not (dead d.Ir.name) in
  let body =
    List.concat_map
      (fun (d : Ir.def) ->
        if String.equal d.Ir.name p.root then
          List.filter keep p.defs
          @ [ (match p.replacement with Inst r -> r | Copy _ -> d) ]
        else if keep d then [ d ]
        else [])
      func.Ir.body
  in
  let func = { func with Ir.body = body } in
  match p.replacement with
  | Inst _ -> func
  | Copy v -> Ir.substitute func p.root v

let rewrite rule func m =
  Option.map (splice ~dead:(fun _ -> false) func) (plan rule func m)
