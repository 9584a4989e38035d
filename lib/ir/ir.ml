type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Sdiv
  | Urem
  | Srem
  | Shl
  | Lshr
  | Ashr
  | And
  | Or
  | Xor

type attr = Nsw | Nuw | Exact
type conv = Zext | Sext | Trunc
type cond = Eq | Ne | Ugt | Uge | Ult | Ule | Sgt | Sge | Slt | Sle

type value = Var of string | Const of Bitvec.t | Undef of int

type inst =
  | Binop of binop * attr list * value * value
  | Icmp of cond * value * value
  | Select of value * value * value
  | Conv of conv * value
  | Freeze of value

type def = { name : string; width : int; inst : inst }

type func = {
  fname : string;
  params : (string * int) list;
  body : def list;
  ret : value;
}

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Udiv -> "udiv"
  | Sdiv -> "sdiv"
  | Urem -> "urem"
  | Srem -> "srem"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Ugt -> "ugt"
  | Uge -> "uge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Slt -> "slt"
  | Sle -> "sle"

let attr_name = function Nsw -> "nsw" | Nuw -> "nuw" | Exact -> "exact"
let conv_name = function Zext -> "zext" | Sext -> "sext" | Trunc -> "trunc"

let pp_value ppf = function
  | Var s -> Format.fprintf ppf "%%%s" s
  | Const c -> Format.pp_print_string ppf (Bitvec.to_string_signed c)
  | Undef _ -> Format.pp_print_string ppf "undef"

let pp_attrs ppf attrs =
  List.iter (fun a -> Format.fprintf ppf " %s" (attr_name a)) attrs

let pp_def ppf d =
  match d.inst with
  | Binop (op, attrs, a, b) ->
      Format.fprintf ppf "%%%s = %s%a i%d %a, %a" d.name (binop_name op)
        pp_attrs attrs d.width pp_value a pp_value b
  | Icmp (c, a, b) ->
      Format.fprintf ppf "%%%s = icmp %s %a, %a" d.name (cond_name c) pp_value
        a pp_value b
  | Select (c, a, b) ->
      Format.fprintf ppf "%%%s = select %a, i%d %a, %a" d.name pp_value c
        d.width pp_value a pp_value b
  | Conv (c, a) ->
      Format.fprintf ppf "%%%s = %s %a to i%d" d.name (conv_name c) pp_value a
        d.width
  | Freeze a -> Format.fprintf ppf "%%%s = freeze i%d %a" d.name d.width pp_value a

let ret_width f = function
  | Const c -> Bitvec.width c
  | Undef w -> w
  | Var name -> (
      match List.assoc_opt name f.params with
      | Some w -> w
      | None -> (
          match List.find_opt (fun d -> String.equal d.name name) f.body with
          | Some d -> d.width
          | None -> 0))

let pp_func ppf f =
  Format.fprintf ppf "@[<v>define i%d @@%s(%s) {@,"
    (ret_width f f.ret)
    f.fname
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "i%d %%%s" w n) f.params));
  List.iter (fun d -> Format.fprintf ppf "  %a@," pp_def d) f.body;
  Format.fprintf ppf "  ret %a@,}@]" pp_value f.ret

let def_of f name = List.find_opt (fun d -> String.equal d.name name) f.body

let value_width f = function
  | Const c -> Bitvec.width c
  | Undef w -> w
  | Var name -> (
      match List.assoc_opt name f.params with
      | Some w -> w
      | None -> (
          match def_of f name with
          | Some d -> d.width
          | None -> raise Not_found))

(* The attributes each opcode takes (docs/LANGUAGE.md). *)
let takes_attr op attr =
  match (attr, op) with
  | (Nsw | Nuw), (Add | Sub | Mul | Shl) -> true
  | Exact, (Udiv | Sdiv | Lshr | Ashr) -> true
  | _ -> false

let operands_of = function
  | Binop (_, _, a, b) | Icmp (_, a, b) -> [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Conv (_, a) | Freeze a -> [ a ]

let validate f =
  let defined = Hashtbl.create 16 in
  let exception Bad of string in
  try
    List.iter
      (fun (n, w) ->
        if Hashtbl.mem defined n then
          raise (Bad (Printf.sprintf "parameter %%%s named twice" n));
        Hashtbl.replace defined n w)
      f.params;
    List.iter
      (fun d ->
        if Hashtbl.mem defined d.name then
          raise (Bad (Printf.sprintf "%%%s defined twice" d.name));
        let operand_width v =
          match v with
          | Const c -> Bitvec.width c
          | Undef w -> w
          | Var n -> (
              match Hashtbl.find_opt defined n with
              | Some w -> w
              | None -> raise (Bad (Printf.sprintf "%%%s used before def" n)))
        in
        (match d.inst with
        | Binop (op, attrs, a, b) ->
            List.iter
              (fun attr ->
                if not (takes_attr op attr) then
                  raise
                    (Bad
                       (Printf.sprintf "%s does not take %s in %%%s"
                          (binop_name op) (attr_name attr) d.name)))
              attrs;
            if operand_width a <> d.width || operand_width b <> d.width then
              raise (Bad (Printf.sprintf "width mismatch in %%%s" d.name))
        | Icmp (_, a, b) ->
            if d.width <> 1 then
              raise (Bad (Printf.sprintf "icmp %%%s must be i1" d.name));
            if operand_width a <> operand_width b then
              raise (Bad (Printf.sprintf "icmp %%%s operand widths differ" d.name))
        | Select (c, a, b) ->
            if operand_width c <> 1 then
              raise (Bad (Printf.sprintf "select %%%s condition must be i1" d.name));
            if operand_width a <> d.width || operand_width b <> d.width then
              raise (Bad (Printf.sprintf "width mismatch in %%%s" d.name))
        | Conv (Zext, a) | Conv (Sext, a) ->
            if operand_width a >= d.width then
              raise (Bad (Printf.sprintf "extension %%%s must widen" d.name))
        | Conv (Trunc, a) ->
            if operand_width a <= d.width then
              raise (Bad (Printf.sprintf "trunc %%%s must narrow" d.name))
        | Freeze a ->
            if operand_width a <> d.width then
              raise (Bad (Printf.sprintf "width mismatch in %%%s" d.name)));
        Hashtbl.replace defined d.name d.width)
      f.body;
    (match f.ret with
    | Var n ->
        if not (Hashtbl.mem defined n) then
          raise (Bad (Printf.sprintf "ret uses undefined %%%s" n))
    | Const _ | Undef _ -> ());
    Ok ()
  with Bad msg -> Error msg

let map_body g f = { f with body = g f.body }

let substitute f name v =
  let sub x = match x with Var n when String.equal n name -> v | _ -> x in
  let uses = function
    | Var n -> String.equal n name
    | Const _ | Undef _ -> false
  in
  let sub_def d =
    if not (List.exists uses (operands_of d.inst)) then d
    else
      let inst =
        match d.inst with
        | Binop (op, attrs, a, b) -> Binop (op, attrs, sub a, sub b)
        | Icmp (c, a, b) -> Icmp (c, sub a, sub b)
        | Select (c, a, b) -> Select (sub c, sub a, sub b)
        | Conv (c, a) -> Conv (c, sub a)
        | Freeze a -> Freeze (sub a)
      in
      { d with inst }
  in
  {
    f with
    body =
      List.filter_map
        (fun d -> if String.equal d.name name then None else Some (sub_def d))
        f.body;
    ret = sub f.ret;
  }

let uses_of f =
  let counts = Hashtbl.create 16 in
  let count = function
    | Var n ->
        Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
    | Const _ | Undef _ -> ()
  in
  List.iter (fun d -> List.iter count (operands_of d.inst)) f.body;
  count f.ret;
  counts
