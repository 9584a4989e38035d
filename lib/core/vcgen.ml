open Ast
module T = Alive_smt.Term

exception Unsupported = Constlang.Unsupported

type ival = (T.t, T.t) Semantics.ival

(* The integer instructions' meaning, read over terms. *)
module Sem = Semantics.Make (Constlang.Term_algebra)

let pure = Sem.Inst.of_value

type side_vc = {
  defs : (string * ival) list;
  undefs : (string * T.sort) list;
}

type memory_vc = {
  src_read : T.t -> T.t; (* final source memory, one byte at an address *)
  tgt_read : T.t -> T.t;
  alloca : T.t list; (* the α constraints of §3.3.1 *)
  congruence : unit -> T.t list;
      (* Ackermann congruence side constraints; thunked because reads may be
         generated after [run] returns (criterion 4 probes memory) *)
}

type vc = {
  src : side_vc;
  tgt : side_vc;
  precondition : T.t;
  side_constraints : T.t list;
  analysis_vars : (string * T.sort) list;
  inputs : (string * T.sort) list;
  memory : memory_vc option;
}

let input_var name width = T.var name (T.Bv width)

(* --- Constant expressions and preconditions (Constlang over terms) --- *)

let leaves env ~lookup : (T.t, T.t) Constlang.leaves =
  {
    constant = (fun name ~width:_ -> input_var name (Typing.width_of_const env name));
    value = (fun name ~width:_ -> lookup name);
    width_of = (fun name -> Some (Typing.width_of_value env name));
    default_width = None;
    bitwidth = None;
    (* A profitability hint, not a correctness fact (§2.3). *)
    one_use = (fun _ -> T.tru);
  }

(* Is every leaf of the expression a compile-time constant? Such predicate
   applications are encoded precisely (§3.1.1). *)
let rec all_constant = function
  | Cint _ | Cbool _ | Cabs _ -> true
  | Cval _ -> false
  | Cun (_, e) -> all_constant e
  | Cbin (_, a, b) -> all_constant a && all_constant b
  | Cfun ("width", _) -> true
  | Cfun (_, args) -> List.for_all all_constant args

type pre_state = {
  mutable analysis_vars : (string * T.sort) list;
  mutable side : T.t list;
  mutable counter : int;
}

let fresh_analysis_var st name =
  let v = Printf.sprintf "%%analysis.%s.%d" name st.counter in
  st.counter <- st.counter + 1;
  st.analysis_vars <- (v, T.Bool) :: st.analysis_vars;
  T.var v T.Bool

(* Predicates encoded with a fresh variable even on constant inputs would be
   vacuously unverifiable; the paper encodes constant applications precisely
   and must-analyses as [p ⇒ fact]. [hasOneUse] is always [true]. *)
let one_sided st name args fact =
  if List.for_all all_constant args || name = "hasOneUse" || name = "OneUse"
  then fact
  else begin
    let p = fresh_analysis_var st name in
    st.side <- T.implies p fact :: st.side;
    p
  end

(* The fully precise reading of a predicate: every [Pcall] becomes its
   underlying fact, with no must-analysis variables. This is the semantics
   inference and precondition comparison need — two predicates are compared
   as facts about the inputs, not as obligations on an abstract analysis. *)
let pred_term_precise env ~lookup p =
  Constlang.Term.pred (leaves env ~lookup) p

(* --- Memory (§3.3) --- *)

(* Pointers are 32-bit; verification is parametric on the ABI in the paper,
   fixed here for tractability (documented in DESIGN.md). *)
let pointer_bits = 32

let value_bits env name =
  match Typing.typ_of_value env name with
  | Int w -> w
  | Ptr _ -> pointer_bits
  | Arr _ as t ->
      raise (Unsupported (Format.asprintf "value of array type %a" Ast.pp_typ t))

let rec byte_size = function
  | Int w -> (w + 7) / 8
  | Ptr _ -> pointer_bits / 8
  | Arr (n, t) -> n * byte_size t

(* The initial memory, shared by source and target, Ackermannized eagerly
   (§3.3.3): each syntactically distinct read address gets a fresh variable,
   with congruence side constraints between every pair. *)
type mem_ctx = {
  mutable base_reads : (T.t * T.t) list; (* address, value variable *)
  mutable read_counter : int;
  mutable congruence : T.t list;
  mutable allocas : (string * T.t * int) list; (* name, pointer var, bytes *)
  share_reads : bool;
      (* true: eager encoding — identical read addresses share one variable
         (no extra variables, §3.3.3). false: the classical Ackermann
         expansion with a fresh variable per read and quadratic congruence
         constraints, for the encoding ablation benchmark. *)
}

let fresh_mem_ctx ~share_reads =
  { base_reads = []; read_counter = 0; congruence = []; allocas = [];
    share_reads }

let base_read ctx addr =
  match
    if ctx.share_reads then
      List.find_opt (fun (a, _) -> T.equal a addr) ctx.base_reads
    else None
  with
  | Some (_, v) -> v
  | None ->
      let v = T.var (Printf.sprintf "%%mem0.%d" ctx.read_counter) (T.Bv 8) in
      ctx.read_counter <- ctx.read_counter + 1;
      List.iter
        (fun (a, v') ->
          ctx.congruence <- T.implies (T.eq addr a) (T.eq v v') :: ctx.congruence)
        ctx.base_reads;
      ctx.base_reads <- (addr, v) :: ctx.base_reads;
      v

(* --- Instruction semantics --- *)

type builder = {
  env : Typing.env;
  side_tag : string; (* "src" or "tgt", used to name undef variables *)
  mem : mem_ctx; (* shared between both sides *)
  mutable values : (string * ival) list; (* newest first *)
  mutable undefs : (string * T.sort) list;
  mutable undef_counter : int;
  (* This side's memory: guarded byte stores, newest first. A load walks the
     chain with ite and bottoms out in the shared initial memory. *)
  mutable stores : (T.t * T.t * T.t) list; (* guard, address, byte *)
  mutable seq_def : T.t; (* definedness accumulated at sequence points *)
  mutable used_memory : bool;
  (* Values inherited from the source when building the target. *)
  base : (string * ival) list;
}

let find_value b name =
  match List.assoc_opt name b.values with
  | Some iv -> Some iv
  | None -> List.assoc_opt name b.base

let lookup_value b name =
  match find_value b name with
  | Some iv -> iv
  | None ->
      (* An input: a fresh universally quantified variable. *)
      pure (input_var name (value_bits b.env name))

let fresh_undef b width =
  let name = Printf.sprintf "%%undef.%s.%d" b.side_tag b.undef_counter in
  b.undef_counter <- b.undef_counter + 1;
  let sort = T.Bv width in
  b.undefs <- (name, sort) :: b.undefs;
  T.var name sort

let operand_ival b ~width { op; ty = _ } =
  match op with
  | Var name -> lookup_value b name
  | Undef -> pure (fresh_undef b width)
  | ConstOp e ->
      let lookup name = (lookup_value b name).value in
      pure (Constlang.Term.cexpr (leaves b.env ~lookup) ~width e)

(* Width of an instruction's operands given the result width (equal for all
   implemented integer instructions except conversions and icmp/select). *)
let operand_width b top ~fallback =
  match top.ty with
  | Some (Int w) -> w
  | Some (Ptr _) -> pointer_bits
  | Some t ->
      raise (Unsupported (Format.asprintf "operand of type %a" Ast.pp_typ t))
  | None -> (
      match top.op with
      | Var name -> value_bits b.env name
      | ConstOp e -> (
          let lookup name = (lookup_value b name).value in
          match Constlang.width (leaves b.env ~lookup) e with
          | Some w -> w
          | None -> fallback ())
      | Undef -> fallback ())

let no_fallback what () =
  raise
    (Unsupported
       (Printf.sprintf "cannot infer the width of a %s operand; annotate it"
          what))

(* Read one byte through this side's store chain, eagerly Ackermannized:
   nested ite over guarded stores, bottoming out in the shared initial
   memory (§3.3.3). *)
let read_byte_through stores mem addr =
  List.fold_left
    (fun rest (guard, a, byte) ->
      T.ite (T.and_ [ guard; T.eq addr a ]) byte rest)
    (base_read mem addr)
    (List.rev stores)

let offset_addr ptr k = T.add ptr (T.const_int ~width:pointer_bits k)

let load_bytes b ptr ~width =
  b.used_memory <- true;
  let nb = (width + 7) / 8 in
  let bytes =
    List.init nb (fun k -> read_byte_through b.stores b.mem (offset_addr ptr k))
  in
  let full =
    match bytes with
    | [] -> assert false
    | b0 :: rest -> List.fold_left (fun acc byte -> T.concat byte acc) b0 rest
  in
  T.trunc full width

let store_bytes b ~guard ptr value =
  b.used_memory <- true;
  let w = T.width value in
  let nb = (w + 7) / 8 in
  let padded = T.zext value (nb * 8) in
  for k = 0 to nb - 1 do
    let byte = T.extract ~hi:((8 * k) + 7) ~lo:(8 * k) padded in
    b.stores <- (guard, offset_addr ptr k, byte) :: b.stores
  done

(* Alloca pointer variables are shared across sides by template name, so a
   target that keeps an alloca refers to the same block. *)
let alloca_ptr b name ~bytes =
  let v = input_var ("%alloca." ^ name) pointer_bits in
  if not (List.exists (fun (n, _, _) -> String.equal n name) b.mem.allocas) then
    b.mem.allocas <- (name, v, bytes) :: b.mem.allocas;
  v

let not_null p = T.distinct p (T.zero pointer_bits)

let build_inst b name inst =
  let result_width = value_bits b.env name in
  match inst with
  | Binop (op, attrs, ta, tb) ->
      let op = ir_binop op and attrs = List.map ir_attr attrs in
      List.iter
        (fun attr ->
          if not (Ir.takes_attr op attr) then
            raise
              (Unsupported
                 (Printf.sprintf "attribute %s on %s" (Ir.attr_name attr)
                    (Ir.binop_name op))))
        attrs;
      let a = operand_ival b ~width:result_width ta in
      let bb = operand_ival b ~width:result_width tb in
      Sem.Inst.binop op attrs a bb
  | Icmp (cond, ta, tb) ->
      let w =
        operand_width b ta ~fallback:(fun () ->
            operand_width b tb ~fallback:(no_fallback "icmp"))
      in
      let a = operand_ival b ~width:w ta and bb = operand_ival b ~width:w tb in
      Sem.Inst.icmp (ir_cond cond) a bb
  | Select (tc, ta, tb) ->
      let c = operand_ival b ~width:1 tc in
      let a = operand_ival b ~width:result_width ta in
      let bb = operand_ival b ~width:result_width tb in
      Sem.Inst.select c a bb
  | Conv (conv, ta, _) -> (
      let aw = operand_width b ta ~fallback:(no_fallback "conversion") in
      let a = operand_ival b ~width:aw ta in
      match (ir_conv conv, conv) with
      | Some conv, _ -> Sem.Inst.conv conv a result_width
      | None, Ptrtoint ->
          let resize =
            if result_width <= pointer_bits then T.trunc else T.zext
          in
          { a with value = resize a.value result_width }
      | None, Inttoptr ->
          let resize = if aw <= pointer_bits then T.zext else T.trunc in
          { a with value = resize a.value pointer_bits }
      | None, _ -> (* bitcast *) a)
  | Copy ta -> operand_ival b ~width:result_width ta
  | Alloca (_, count) ->
      let elems =
        match count.op with
        | ConstOp (Cint n) when n > 0L && n < 1024L -> Int64.to_int n
        | _ -> raise (Unsupported "alloca needs a literal element count")
      in
      let elem_ty =
        match Typing.typ_of_value b.env name with
        | Ptr t -> t
        | t ->
            raise
              (Unsupported
                 (Format.asprintf "alloca of non-pointer type %a" Ast.pp_typ t))
      in
      let bytes = elems * byte_size elem_ty in
      let ptr = alloca_ptr b name ~bytes in
      (* The block starts uninitialized: reading it yields undef (paper:
         fresh variables added to U). *)
      for k = 0 to bytes - 1 do
        b.stores <- (T.tru, offset_addr ptr k, fresh_undef b 8) :: b.stores
      done;
      pure ptr
  | Load tp ->
      let p = operand_ival b ~width:pointer_bits tp in
      {
        Semantics.value = load_bytes b p.value ~width:result_width;
        defined = T.and_ [ not_null p.value; p.defined ];
        poison_free = p.poison_free;
      }
  | Gep (tbase, tidxs) ->
      let base = operand_ival b ~width:pointer_bits tbase in
      let elem_ty =
        match Typing.typ_of_value b.env name with
        | Ptr t -> t
        | t ->
            raise
              (Unsupported
                 (Format.asprintf "gep of non-pointer type %a" Ast.pp_typ t))
      in
      let stride = byte_size elem_ty in
      let idxs =
        List.map
          (fun ti ->
            let w = operand_width b ti ~fallback:(fun () -> pointer_bits) in
            operand_ival b ~width:w ti)
          tidxs
      in
      let addr =
        List.fold_left
          (fun acc (idx : ival) ->
            let wide =
              if T.width idx.value <= pointer_bits then
                T.sext idx.value pointer_bits
              else T.trunc idx.value pointer_bits
            in
            T.add acc (T.mul wide (T.const_int ~width:pointer_bits stride)))
          base.value idxs
      in
      {
        Semantics.value = addr;
        defined =
          T.and_ (base.defined :: List.map (fun (i : ival) -> i.defined) idxs);
        poison_free =
          T.and_
            (base.poison_free
            :: List.map (fun (i : ival) -> i.poison_free) idxs);
      }

let build_store b tv tp =
  let p = operand_ival b ~width:pointer_bits tp in
  let vw = operand_width b tv ~fallback:(no_fallback "store value") in
  let v = operand_ival b ~width:vw tv in
  (* A store is a sequence point: it updates memory only when everything so
     far is defined and poison-free (paper: stores of poison are UB and an
     already-undefined execution leaves memory arbitrary). *)
  let guard =
    T.and_
      [ b.seq_def; v.defined; p.defined; v.poison_free; p.poison_free;
        not_null p.value ]
  in
  b.seq_def <- guard;
  store_bytes b ~guard p.value v.value

let build_side env ~side_tag ~base ~mem stmts =
  let b =
    {
      env;
      side_tag;
      mem;
      values = [];
      undefs = [];
      undef_counter = 0;
      stores = [];
      seq_def = T.tru;
      used_memory = false;
      base;
    }
  in
  List.iter
    (fun s ->
      match s with
      | Def (name, _, inst) ->
          let iv = build_inst b name inst in
          b.values <- (name, iv) :: b.values
      | Store (v, p) -> build_store b v p
      | Unreachable -> raise (Unsupported "unreachable"))
    stmts;
  (b, { defs = List.rev b.values; undefs = List.rev b.undefs })

(* Constraints α for stack allocations (§3.3.1): non-null, no wraparound,
   and pairwise disjointness. *)
let alloca_constraints mem =
  let block_ok (_, p, size) =
    let size_t = T.const_int ~width:pointer_bits size in
    T.and_ [ T.distinct p (T.zero pointer_bits); T.ule p (T.add p size_t) ]
  in
  let rec disjoint = function
    | [] -> []
    | (_, p, sp) :: rest ->
        List.map
          (fun (_, q, sq) ->
            T.or_
              [
                T.ule (T.add p (T.const_int ~width:pointer_bits sp)) q;
                T.ule (T.add q (T.const_int ~width:pointer_bits sq)) p;
              ])
          rest
        @ disjoint rest
  in
  List.map block_ok mem.allocas @ disjoint mem.allocas

let run_untraced ?(share_memory_reads = true) ?(precise_pre = false) env
    (t : transform) =
  let mem = fresh_mem_ctx ~share_reads:share_memory_reads in
  let src_builder, src = build_side env ~side_tag:"src" ~base:[] ~mem t.src in
  (* A target operand naming a source temporary denotes the value the source
     computed (the instruction stays in the IR), conditions included; a
     target definition of the same name shadows it for later target uses. *)
  let tgt_builder, tgt =
    build_side env ~side_tag:"tgt" ~base:src_builder.values ~mem t.tgt
  in
  let st = { analysis_vars = []; side = []; counter = 0 } in
  let lookup name =
    match List.assoc_opt name src_builder.values with
    | Some iv -> iv.value
    | None -> input_var name (value_bits env name)
  in
  (* The default reading models analysis predicates as one-sided facts
     (the may-analysis variable can be false even when the fact holds) —
     right for hand-written preconditions, where [!hasOneUse(%x)] means
     "the analysis did not prove it". Precondition inference needs the
     two-sided [precise_pre] reading instead: a learned [Pnot (Pcall _)]
     must mean the fact is false, or counterexample models and concrete
     evaluation disagree on it. *)
  let precondition =
    if precise_pre then pred_term_precise env ~lookup t.pre
    else Constlang.Term.pred ~call:(one_sided st) (leaves env ~lookup) t.pre
  in
  (* The input set I: program inputs and abstract constants. *)
  let info =
    match Scoping.check t with
    | Ok info -> info
    | Error msg -> raise (Unsupported ("scoping: " ^ msg))
  in
  let inputs =
    List.map (fun n -> (n, T.Bv (value_bits env n))) (info.inputs @ info.constants)
  in
  let memory =
    if src_builder.used_memory || tgt_builder.used_memory
       || mem.allocas <> []
    then
      Some
        {
          src_read = (fun addr -> read_byte_through src_builder.stores mem addr);
          tgt_read = (fun addr -> read_byte_through tgt_builder.stores mem addr);
          alloca = alloca_constraints mem;
          congruence = (fun () -> mem.congruence);
        }
    else None
  in
  {
    src;
    tgt;
    precondition;
    side_constraints = st.side;
    analysis_vars = st.analysis_vars;
    inputs;
    memory;
  }

let run ?share_memory_reads ?precise_pre env (t : transform) =
  Alive_trace.Trace.with_span
    ~meta:[ ("transform", Alive_trace.Trace.Str t.name) ]
    "vcgen"
    (fun () -> run_untraced ?share_memory_reads ?precise_pre env t)
