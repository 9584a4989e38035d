type typ = Int of int | Ptr of typ | Arr of int * typ

let rec pp_typ ppf = function
  | Int n -> Format.fprintf ppf "i%d" n
  | Ptr t -> Format.fprintf ppf "%a*" pp_typ t
  | Arr (n, t) -> Format.fprintf ppf "[%d x %a]" n pp_typ t

let rec equal_typ a b =
  match (a, b) with
  | Int n, Int m -> n = m
  | Ptr t, Ptr u -> equal_typ t u
  | Arr (n, t), Arr (m, u) -> n = m && equal_typ t u
  | (Int _ | Ptr _ | Arr _), _ -> false

type cunop = Cneg | Cnot

type cbinop =
  | Cadd
  | Csub
  | Cmul
  | Csdiv
  | Cudiv
  | Csrem
  | Curem
  | Cshl
  | Clshr
  | Cashr
  | Cand
  | Cor
  | Cxor

type cexpr =
  | Cint of int64
  | Cbool of bool
  | Cabs of string
  | Cval of string
  | Cun of cunop * cexpr
  | Cbin of cbinop * cexpr * cexpr
  | Cfun of string * cexpr list

type pcmp = Peq | Pne | Pslt | Psle | Psgt | Psge | Pult | Pule | Pugt | Puge

type pred =
  | Ptrue
  | Pcmp of pcmp * cexpr * cexpr
  | Pcall of string * cexpr list
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred

let cbinop_symbol = function
  | Cadd -> "+"
  | Csub -> "-"
  | Cmul -> "*"
  | Csdiv -> "/"
  | Cudiv -> "/u"
  | Csrem -> "%"
  | Curem -> "%u"
  | Cshl -> "<<"
  | Clshr -> ">>"
  | Cashr -> ">>a"
  | Cand -> "&"
  | Cor -> "|"
  | Cxor -> "^"

let rec pp_cexpr ppf = function
  | Cint n -> Format.fprintf ppf "%Ld" n
  | Cbool b -> Format.pp_print_bool ppf b
  | Cabs s | Cval s -> Format.pp_print_string ppf s
  | Cun (Cneg, e) -> Format.fprintf ppf "-%a" pp_atom e
  | Cun (Cnot, e) -> Format.fprintf ppf "~%a" pp_atom e
  | Cbin (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_atom a (cbinop_symbol op) pp_atom b
  | Cfun (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_cexpr)
        args

and pp_atom ppf e =
  match e with
  | Cint _ | Cbool _ | Cabs _ | Cval _ | Cfun _ | Cun _ -> pp_cexpr ppf e
  | Cbin _ -> Format.fprintf ppf "(%a)" pp_cexpr e

let pcmp_symbol = function
  | Peq -> "=="
  | Pne -> "!="
  | Pslt -> "<"
  | Psle -> "<="
  | Psgt -> ">"
  | Psge -> ">="
  | Pult -> "u<"
  | Pule -> "u<="
  | Pugt -> "u>"
  | Puge -> "u>="

let rec pp_pred ppf = function
  | Ptrue -> Format.pp_print_string ppf "true"
  | Pcmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_cexpr a (pcmp_symbol op) pp_cexpr b
  | Pcall (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_cexpr)
        args
  | Pand (a, b) -> Format.fprintf ppf "%a && %a" pp_pred_atom a pp_pred_atom b
  | Por (a, b) -> Format.fprintf ppf "%a || %a" pp_pred_atom a pp_pred_atom b
  | Pnot a -> Format.fprintf ppf "!%a" pp_pred_atom a

and pp_pred_atom ppf p =
  match p with
  | Ptrue | Pcmp _ | Pcall _ | Pnot _ -> pp_pred ppf p
  | Pand _ | Por _ -> Format.fprintf ppf "(%a)" pp_pred p

type binop =
  | Add
  | Sub
  | Mul
  | UDiv
  | SDiv
  | URem
  | SRem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | UDiv -> "udiv"
  | SDiv -> "sdiv"
  | URem -> "urem"
  | SRem -> "srem"
  | Shl -> "shl"
  | LShr -> "lshr"
  | AShr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

type attr = Nsw | Nuw | Exact

let attr_name = function Nsw -> "nsw" | Nuw -> "nuw" | Exact -> "exact"

type conv = Zext | Sext | Trunc | Bitcast | Ptrtoint | Inttoptr

let conv_name = function
  | Zext -> "zext"
  | Sext -> "sext"
  | Trunc -> "trunc"
  | Bitcast -> "bitcast"
  | Ptrtoint -> "ptrtoint"
  | Inttoptr -> "inttoptr"

type cond = Ceq | Cne | Cugt | Cuge | Cult | Cule | Csgt | Csge | Cslt | Csle

let cond_name = function
  | Ceq -> "eq"
  | Cne -> "ne"
  | Cugt -> "ugt"
  | Cuge -> "uge"
  | Cult -> "ult"
  | Cule -> "ule"
  | Csgt -> "sgt"
  | Csge -> "sge"
  | Cslt -> "slt"
  | Csle -> "sle"

(* The one map from template opcodes to the IR's, whose instructions
   carry their meaning (lib/ir/semantics.ml). *)
let ir_binop = function
  | Add -> Ir.Add
  | Sub -> Ir.Sub
  | Mul -> Ir.Mul
  | UDiv -> Ir.Udiv
  | SDiv -> Ir.Sdiv
  | URem -> Ir.Urem
  | SRem -> Ir.Srem
  | Shl -> Ir.Shl
  | LShr -> Ir.Lshr
  | AShr -> Ir.Ashr
  | And -> Ir.And
  | Or -> Ir.Or
  | Xor -> Ir.Xor

let ir_attr = function Nsw -> Ir.Nsw | Nuw -> Ir.Nuw | Exact -> Ir.Exact

let ir_cond = function
  | Ceq -> Ir.Eq
  | Cne -> Ir.Ne
  | Cugt -> Ir.Ugt
  | Cuge -> Ir.Uge
  | Cult -> Ir.Ult
  | Cule -> Ir.Ule
  | Csgt -> Ir.Sgt
  | Csge -> Ir.Sge
  | Cslt -> Ir.Slt
  | Csle -> Ir.Sle

let ir_conv = function
  | Zext -> Some Ir.Zext
  | Sext -> Some Ir.Sext
  | Trunc -> Some Ir.Trunc
  | Bitcast | Ptrtoint | Inttoptr -> None

type operand = Var of string | ConstOp of cexpr | Undef

type toperand = { op : operand; ty : typ option }

type inst =
  | Binop of binop * attr list * toperand * toperand
  | Conv of conv * toperand * typ option
  | Select of toperand * toperand * toperand
  | Icmp of cond * toperand * toperand
  | Copy of toperand
  | Alloca of typ option * toperand
  | Load of toperand
  | Gep of toperand * toperand list

type stmt =
  | Def of string * typ option * inst
  | Store of toperand * toperand
  | Unreachable

(* Source locations, recorded by the parser so downstream analyses (the
   lint pass in particular) can report file:line spans. Programmatic
   construction uses [no_locs]; every accessor falls back to the header
   line, so locations are best-effort and never block an analysis. *)
type locs = {
  header_line : int;  (* the Name: line, or the first line of the source *)
  pre_line : int;  (* 0 when there is no precondition *)
  src_lines : int array;  (* one entry per source statement *)
  tgt_lines : int array;  (* one entry per target statement *)
}

let no_locs =
  { header_line = 1; pre_line = 0; src_lines = [||]; tgt_lines = [||] }

let nth_line lines fallback i =
  if i >= 0 && i < Array.length lines then lines.(i) else fallback

let src_line locs i = nth_line locs.src_lines locs.header_line i
let tgt_line locs i = nth_line locs.tgt_lines locs.header_line i

let pre_line locs =
  if locs.pre_line > 0 then locs.pre_line else locs.header_line

type transform = {
  name : string;
  pre : pred;
  src : stmt list;
  tgt : stmt list;
  locs : locs;
}

let pp_operand ppf = function
  | Var s -> Format.pp_print_string ppf s
  | ConstOp e -> pp_cexpr ppf e
  | Undef -> Format.pp_print_string ppf "undef"

let pp_toperand ppf { op; ty } =
  match ty with
  | None -> pp_operand ppf op
  | Some t -> Format.fprintf ppf "%a %a" pp_typ t pp_operand op

let pp_inst ppf = function
  | Binop (op, attrs, a, b) ->
      Format.fprintf ppf "%s%s %a, %a" (binop_name op)
        (String.concat ""
           (List.map (fun a -> " " ^ attr_name a) attrs))
        pp_toperand a pp_toperand b
  | Conv (c, a, ty) -> (
      match ty with
      | None -> Format.fprintf ppf "%s %a" (conv_name c) pp_toperand a
      | Some t -> Format.fprintf ppf "%s %a to %a" (conv_name c) pp_toperand a pp_typ t)
  | Select (c, a, b) ->
      Format.fprintf ppf "select %a, %a, %a" pp_toperand c pp_toperand a
        pp_toperand b
  | Icmp (c, a, b) ->
      Format.fprintf ppf "icmp %s %a, %a" (cond_name c) pp_toperand a
        pp_toperand b
  | Copy a -> pp_toperand ppf a
  | Alloca (ty, n) -> (
      match ty with
      | None -> Format.fprintf ppf "alloca %a" pp_toperand n
      | Some t -> Format.fprintf ppf "alloca %a, %a" pp_typ t pp_toperand n)
  | Load a -> Format.fprintf ppf "load %a" pp_toperand a
  | Gep (base, idx) ->
      Format.fprintf ppf "getelementptr %a%a" pp_toperand base
        (fun ppf l ->
          List.iter (fun i -> Format.fprintf ppf ", %a" pp_toperand i) l)
        idx

let pp_stmt ppf = function
  | Def (name, ty, inst) -> (
      match ty with
      | None -> Format.fprintf ppf "%s = %a" name pp_inst inst
      | Some t -> Format.fprintf ppf "%s = %a %a" name pp_typ t pp_inst inst)
  | Store (v, p) -> Format.fprintf ppf "store %a, %a" pp_toperand v pp_toperand p
  | Unreachable -> Format.pp_print_string ppf "unreachable"

let pp_transform ppf t =
  Format.fprintf ppf "@[<v>Name: %s@," t.name;
  (match t.pre with
  | Ptrue -> ()
  | p -> Format.fprintf ppf "Pre: %a@," pp_pred p);
  List.iter (fun s -> Format.fprintf ppf "%a@," pp_stmt s) t.src;
  Format.fprintf ppf "=>@,";
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf t.tgt;
  Format.fprintf ppf "@]"

let operands_of_inst = function
  | Binop (_, _, a, b) | Icmp (_, a, b) -> [ a; b ]
  | Conv (_, a, _) | Copy a | Load a | Alloca (_, a) -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Gep (base, idx) -> base :: idx

let defined_names stmts =
  List.filter_map (function Def (n, _, _) -> Some n | Store _ | Unreachable -> None) stmts

let def_insts stmts =
  List.filter_map
    (function Def (n, _, i) -> Some (n, i) | Store _ | Unreachable -> None)
    stmts

let root_of stmts =
  List.fold_left
    (fun acc s -> match s with Def (n, _, _) -> Some n | Store _ | Unreachable -> acc)
    None stmts

let operand_vars stmts =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      acc := n :: !acc
    end
  in
  let rec cexpr_vars = function
    | Cint _ | Cbool _ | Cabs _ -> ()
    | Cval n -> add n
    | Cun (_, e) -> cexpr_vars e
    | Cbin (_, a, b) ->
        cexpr_vars a;
        cexpr_vars b
    | Cfun (_, args) -> List.iter cexpr_vars args
  in
  let operand { op; _ } =
    match op with Var n -> add n | ConstOp e -> cexpr_vars e | Undef -> ()
  in
  List.iter
    (function
      | Def (_, _, inst) -> List.iter operand (operands_of_inst inst)
      | Store (v, p) ->
          operand v;
          operand p
      | Unreachable -> ())
    stmts;
  List.rev !acc

let abstract_constants t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      acc := n :: !acc
    end
  in
  let rec cexpr = function
    | Cint _ | Cbool _ | Cval _ -> ()
    | Cabs n -> add n
    | Cun (_, e) -> cexpr e
    | Cbin (_, a, b) ->
        cexpr a;
        cexpr b
    | Cfun (_, args) -> List.iter cexpr args
  in
  let rec pred = function
    | Ptrue -> ()
    | Pcmp (_, a, b) ->
        cexpr a;
        cexpr b
    | Pcall (_, args) -> List.iter cexpr args
    | Pand (a, b) | Por (a, b) ->
        pred a;
        pred b
    | Pnot a -> pred a
  in
  let operand { op; _ } =
    match op with ConstOp e -> cexpr e | Var _ | Undef -> ()
  in
  let stmts =
    List.iter (function
      | Def (_, _, inst) -> List.iter operand (operands_of_inst inst)
      | Store (v, p) ->
          operand v;
          operand p
      | Unreachable -> ())
  in
  pred t.pre;
  stmts t.src;
  stmts t.tgt;
  List.rev !acc

let has_memory_ops t =
  let inst_mem = function
    | Alloca _ | Load _ | Gep _ -> true
    | Conv ((Bitcast | Ptrtoint | Inttoptr), _, _) -> true
    | Binop _ | Conv _ | Select _ | Icmp _ | Copy _ -> false
  in
  let stmt_mem = function
    | Def (_, _, i) -> inst_mem i
    | Store _ -> true
    | Unreachable -> false
  in
  List.exists stmt_mem t.src || List.exists stmt_mem t.tgt
