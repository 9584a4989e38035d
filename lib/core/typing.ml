open Ast

type error = { message : string; transform : string }

let pp_error ppf e =
  Format.fprintf ppf "type error in %s: %s" e.transform e.message

exception Type_error of string

(* Growable union-find with fixed-type and kind payloads on class roots.
   The kind tracks structural knowledge short of a concrete type: integer,
   or pointer with a pointee class. *)
module Uf = struct
  type kind = Kunknown | Kint | Kptr of int (* pointee class id *)

  type t = {
    mutable parent : int array;
    mutable fixed : typ option array;
    mutable kind : kind array;
    mutable size : int;
  }

  let create () =
    {
      parent = Array.make 64 0;
      fixed = Array.make 64 None;
      kind = Array.make 64 Kunknown;
      size = 0;
    }

  let fresh t =
    if t.size = Array.length t.parent then begin
      let parent = Array.make (2 * t.size) 0 in
      Array.blit t.parent 0 parent 0 t.size;
      t.parent <- parent;
      let fixed = Array.make (2 * t.size) None in
      Array.blit t.fixed 0 fixed 0 t.size;
      t.fixed <- fixed;
      let kind = Array.make (2 * t.size) Kunknown in
      Array.blit t.kind 0 kind 0 t.size;
      t.kind <- kind
    end;
    let id = t.size in
    t.parent.(id) <- id;
    t.size <- t.size + 1;
    id

  let rec find t i =
    if t.parent.(i) = i then i
    else begin
      let root = find t t.parent.(i) in
      t.parent.(i) <- root;
      root
    end

  let rec fix t i ty =
    let r = find t i in
    (match (ty, t.kind.(r)) with
    | Int _, Kptr _ | (Ptr _ | Arr _), Kint ->
        raise (Type_error "integer/pointer kind conflict")
    | Ptr elem, Kptr p -> fix t p elem
    | _ -> ());
    (match ty with
    | Int _ -> t.kind.(r) <- Kint
    | Ptr _ | Arr _ -> ()); (* structural kind recorded via fixed *)
    match t.fixed.(r) with
    | None -> t.fixed.(r) <- Some ty
    | Some ty' ->
        if not (equal_typ ty ty') then
          raise
            (Type_error
               (Format.asprintf "conflicting types %a and %a" pp_typ ty' pp_typ
                  ty))

  and mark_int t i =
    let r = find t i in
    match t.kind.(r) with
    | Kunknown -> t.kind.(r) <- Kint
    | Kint -> ()
    | Kptr _ -> raise (Type_error "pointer used in an integer context")

  and mark_ptr t i ~pointee =
    let r = find t i in
    match t.kind.(r) with
    | Kunknown -> t.kind.(r) <- Kptr pointee
    | Kptr p -> union t p pointee
    | Kint -> raise (Type_error "integer used in a pointer context")

  and union t i j =
    let ri = find t i and rj = find t j in
    if ri <> rj then begin
      t.parent.(ri) <- rj;
      (match (t.kind.(ri), t.kind.(rj)) with
      | Kunknown, _ -> ()
      | k, Kunknown -> t.kind.(rj) <- k
      | Kint, Kint -> ()
      | Kptr a, Kptr b -> union t a b
      | Kint, Kptr _ | Kptr _, Kint ->
          raise (Type_error "integer/pointer kind conflict"));
      match t.fixed.(ri) with
      | None -> ()
      | Some ty -> fix t rj ty
    end

  let fixed_of t i = t.fixed.(find t i)
  let kind_of t i = t.kind.(find t i)
end

type collector = {
  uf : Uf.t;
  ids : (string, int) Hashtbl.t; (* "%x" and constant names share the table *)
  mutable lt : (int * int) list; (* strictly-smaller-width constraints *)
  mutable ge : (int * int) list; (* minimum-width constraints (literals) *)
}

(* Bits needed to represent a literal in two's complement: positive values
   need a leading zero, so literal 1 excludes i1 (making the paper's §2.4
   [(x+1) > x] example valid: i1 would refute it). *)
let signed_bits n =
  let rec bit_length v = if v = 0L then 0 else 1 + bit_length (Int64.shift_right_logical v 1) in
  if n >= 0L then bit_length n + 1
  else bit_length (Int64.lognot n) + 1

let tv_of c name =
  match Hashtbl.find_opt c.ids name with
  | Some id -> id
  | None ->
      let id = Uf.fresh c.uf in
      Hashtbl.add c.ids name id;
      id

let fresh_tv c = Uf.fresh c.uf

(* Built-in constant functions: those whose argument shares the context type
   versus those with an independently typed argument. *)
let context_funs = [ "abs"; "log2"; "umax"; "umin"; "smax"; "smin" ]
let independent_funs = [ "width" ]

(* Built-in predicates and whether their arguments share one type. *)
let shared_arg_preds =
  [
    "MaskedValueIsZero";
    "WillNotOverflowSignedAdd";
    "WillNotOverflowUnsignedAdd";
    "WillNotOverflowSignedSub";
    "WillNotOverflowUnsignedSub";
    "WillNotOverflowSignedMul";
    "WillNotOverflowUnsignedMul";
  ]

let independent_arg_preds =
  [
    "isPowerOf2";
    "isPowerOf2OrZero";
    "isSignBit";
    "isShiftedMask";
    "hasOneUse";
    "OneUse";
  ]

let rec cexpr_leaves c e ctx =
  match e with
  | Cint n -> if n <> 0L then c.ge <- (ctx, signed_bits n) :: c.ge
  | Cbool _ -> ()
  | Cabs name -> Uf.union c.uf (tv_of c name) ctx
  | Cval name -> Uf.union c.uf (tv_of c name) ctx
  | Cun (_, e) -> cexpr_leaves c e ctx
  | Cbin (_, a, b) ->
      cexpr_leaves c a ctx;
      cexpr_leaves c b ctx
  | Cfun (f, args) ->
      if List.mem f context_funs then List.iter (fun a -> cexpr_leaves c a ctx) args
      else if List.mem f independent_funs then
        List.iter (fun a -> cexpr_leaves c a (fresh_tv c)) args
      else raise (Type_error (Printf.sprintf "unknown constant function %s" f))

let toperand c { op; ty } ctx =
  (match ty with Some t -> Uf.fix c.uf ctx t | None -> ());
  match op with
  | Var name -> Uf.union c.uf (tv_of c name) ctx
  | ConstOp e -> cexpr_leaves c e ctx
  | Undef -> ()

let stmt_constraints c s =
  match s with
  | Def (name, ann, inst) -> (
      let r = tv_of c name in
      (match ann with Some t -> Uf.fix c.uf r t | None -> ());
      match inst with
      | Binop (_, _, a, b) ->
          toperand c a r;
          toperand c b r
      | Icmp (_, a, b) ->
          let t = fresh_tv c in
          toperand c a t;
          toperand c b t;
          Uf.fix c.uf r (Int 1)
      | Select (cond, a, b) ->
          let tc = fresh_tv c in
          toperand c cond tc;
          Uf.fix c.uf tc (Int 1);
          toperand c a r;
          toperand c b r
      | Conv (Zext, a, to_ty) | Conv (Sext, a, to_ty) ->
          let ta = fresh_tv c in
          toperand c a ta;
          (match to_ty with Some t -> Uf.fix c.uf r t | None -> ());
          c.lt <- (ta, r) :: c.lt
      | Conv (Trunc, a, to_ty) ->
          let ta = fresh_tv c in
          toperand c a ta;
          (match to_ty with Some t -> Uf.fix c.uf r t | None -> ());
          c.lt <- (r, ta) :: c.lt
      | Conv (Bitcast, a, to_ty) ->
          (* Same-width reinterpretation: integer bitcasts unify; pointer
             bitcasts relate two pointer classes with free pointees. *)
          (match to_ty with
          | Some (Ptr _ as t) ->
              Uf.fix c.uf r t;
              let ta = fresh_tv c in
              Uf.mark_ptr c.uf ta ~pointee:(fresh_tv c);
              toperand c a ta
          | Some t ->
              Uf.fix c.uf r t;
              toperand c a r
          | None -> toperand c a r)
      | Conv (Ptrtoint, a, to_ty) ->
          Uf.mark_int c.uf r;
          (match to_ty with Some t -> Uf.fix c.uf r t | None -> ());
          let ta = fresh_tv c in
          Uf.mark_ptr c.uf ta ~pointee:(fresh_tv c);
          toperand c a ta
      | Conv (Inttoptr, a, to_ty) ->
          Uf.mark_ptr c.uf r ~pointee:(fresh_tv c);
          (match to_ty with Some t -> Uf.fix c.uf r t | None -> ());
          let ta = fresh_tv c in
          Uf.mark_int c.uf ta;
          toperand c a ta
      | Alloca (elem_ty, count) ->
          let pointee = fresh_tv c in
          (match elem_ty with Some t -> Uf.fix c.uf pointee t | None -> ());
          Uf.mark_ptr c.uf r ~pointee;
          let tc = fresh_tv c in
          Uf.mark_int c.uf tc;
          toperand c count tc
      | Load p ->
          let tp = fresh_tv c in
          Uf.mark_ptr c.uf tp ~pointee:r;
          toperand c p tp
      | Gep (base, idxs) ->
          (* Element-offset form: the result points into the same object. *)
          let pointee = fresh_tv c in
          Uf.mark_ptr c.uf r ~pointee;
          let tb = fresh_tv c in
          Uf.mark_ptr c.uf tb ~pointee;
          toperand c base tb;
          List.iter
            (fun idx ->
              let ti = fresh_tv c in
              Uf.mark_int c.uf ti;
              toperand c idx ti)
            idxs
      | Copy a -> toperand c a r)
  | Store (v, p) ->
      let tv = fresh_tv c in
      let tp = fresh_tv c in
      Uf.mark_ptr c.uf tp ~pointee:tv;
      toperand c v tv;
      toperand c p tp
  | Unreachable -> ()

let rec pred_constraints c p =
  match p with
  | Ptrue -> ()
  | Pcmp (_, a, b) ->
      let t = fresh_tv c in
      cexpr_leaves c a t;
      cexpr_leaves c b t
  | Pcall (f, args) ->
      if List.mem f shared_arg_preds then begin
        let t = fresh_tv c in
        List.iter (fun a -> cexpr_leaves c a t) args
      end
      else if List.mem f independent_arg_preds then
        List.iter (fun a -> cexpr_leaves c a (fresh_tv c)) args
      else raise (Type_error (Printf.sprintf "unknown predicate %s" f))
  | Pand (a, b) | Por (a, b) ->
      pred_constraints c a;
      pred_constraints c b
  | Pnot a -> pred_constraints c a

(* --- Concrete typings --- *)

type env = { types : (string, typ) Hashtbl.t }

let typ_of_value env name = Hashtbl.find env.types name
let typ_of_const = typ_of_value

let width_of name ty =
  match ty with
  | Int w -> w
  | t ->
      invalid_arg
        (Format.asprintf "width_of: %s has non-integer type %a" name pp_typ t)

let width_of_value env name = width_of name (typ_of_value env name)
let width_of_const = width_of_value

let pp_env ppf env =
  let items =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.types []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s:%a" k pp_typ v)
    ppf items

let default_widths = [ 4; 8; 1; 2; 3; 5; 6; 7 ]

let parse_widths spec =
  let item part =
    let part = String.trim part in
    let range =
      try Some (Scanf.sscanf part "%d..%d%!" (fun a b -> (a, b)))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    match range with
    | Some (a, b) when 1 <= a && a <= b && b <= 64 ->
        Ok (List.init (b - a + 1) (fun i -> a + i))
    | Some _ -> Error ("bad width range (need 1 <= a <= b <= 64): " ^ part)
    | None -> (
        match int_of_string_opt part with
        | Some w when 1 <= w && w <= 64 -> Ok [ w ]
        | _ -> Error ("bad width (need 1..64): " ^ part))
  in
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | part :: rest -> Result.bind (item part) (fun ws -> go (ws :: acc) rest)
  in
  go [] (String.split_on_char ',' spec)

let enumerate_untraced ?(widths = default_widths) ?(max_typings = 64)
    (t : transform) =
  let c = { uf = Uf.create (); ids = Hashtbl.create 32; lt = []; ge = [] } in
  try
    List.iter (stmt_constraints c) t.src;
    List.iter (stmt_constraints c) t.tgt;
    pred_constraints c t.pre;
    (* Gather named classes. *)
    let names = Hashtbl.fold (fun k id acc -> (k, id) :: acc) c.ids [] in
    let roots =
      List.sort_uniq Int.compare (List.map (fun (_, id) -> Uf.find c.uf id) names)
    in
    let is_ptr r =
      match (Uf.kind_of c.uf r, Uf.fixed_of c.uf r) with
      | Uf.Kptr _, _ | _, Some (Ptr _ | Arr _) -> true
      | _ -> false
    in
    let fixed_width r =
      if is_ptr r then Some 0 (* pointers take no width assignment *)
      else
        match Uf.fixed_of c.uf r with
        | Some (Int w) -> Some w
        | Some ty ->
            raise
              (Type_error
                 (Format.asprintf "non-integer type %a in integer context"
                    pp_typ ty))
        | None -> None
    in
    let free_roots = List.filter (fun r -> fixed_width r = None) roots in
    let lt =
      List.map (fun (a, b) -> (Uf.find c.uf a, Uf.find c.uf b)) c.lt
    in
    let ge = List.map (fun (a, n) -> (Uf.find c.uf a, n)) c.ge in
    (* The lt constraint roots may include anonymous classes (conversion
       operands that are literals); they need widths too. *)
    let free_roots =
      List.sort_uniq Int.compare
        (free_roots
        @ List.concat_map
            (fun (a, b) ->
              List.filter (fun r -> fixed_width r = None) [ a; b ])
            lt)
    in
    (* Depth-first product over the domain with incremental lt checking. *)
    let results = ref [] in
    let count = ref 0 in
    let assignment : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let width_of_root r =
      match fixed_width r with
      | Some w -> Some w
      | None -> Hashtbl.find_opt assignment r
    in
    let lt_ok () =
      List.for_all
        (fun (a, b) ->
          match (width_of_root a, width_of_root b) with
          | Some wa, Some wb -> wa < wb
          | _ -> true)
        lt
      && List.for_all
           (fun (a, n) ->
             match width_of_root a with Some wa -> wa >= n | None -> true)
           ge
    in
    let emit () =
      if !count < max_typings then begin
        incr count;
        let env = { types = Hashtbl.create 16 } in
        (* Resolve a class to a concrete type, following pointee links.
           Depth is bounded by the template's type nesting (paper: two
           levels); free pointee classes default to the current width
           assignment or i8. *)
        let rec resolve depth r =
          if depth > 4 then raise (Type_error "type nesting too deep");
          let r = Uf.find c.uf r in
          match Uf.fixed_of c.uf r with
          | Some ty -> ty
          | None -> (
              match Uf.kind_of c.uf r with
              | Uf.Kptr p -> Ptr (resolve (depth + 1) p)
              | Uf.Kint | Uf.Kunknown -> (
                  match Hashtbl.find_opt assignment r with
                  | Some w -> Int w
                  | None -> Int 8))
        in
        List.iter
          (fun (name, id) ->
            Hashtbl.replace env.types name (resolve 0 (Uf.find c.uf id)))
          names;
        results := env :: !results
      end
    in
    let rec go = function
      | [] -> if lt_ok () then emit ()
      | r :: rest ->
          List.iter
            (fun w ->
              if !count < max_typings then begin
                Hashtbl.replace assignment r w;
                if lt_ok () then go rest;
                Hashtbl.remove assignment r
              end)
            widths
    in
    (* A typing with no free classes still needs the lt check. *)
    go free_roots;
    Ok (List.rev !results)
  with Type_error message -> Error { message; transform = t.name }

let enumerate ?widths ?max_typings (t : transform) =
  let module Trace = Alive_trace.Trace in
  let sp = Trace.begin_span ~meta:[ ("transform", Trace.Str t.name) ] "typing" in
  let r = enumerate_untraced ?widths ?max_typings t in
  Trace.add_meta sp
    [ ("typings", Trace.Int (match r with Ok l -> List.length l | Error _ -> 0)) ];
  Trace.end_span sp;
  r

let classes (t : transform) =
  let c = { uf = Uf.create (); ids = Hashtbl.create 32; lt = []; ge = [] } in
  try
    List.iter (stmt_constraints c) t.src;
    List.iter (stmt_constraints c) t.tgt;
    pred_constraints c t.pre;
    let names =
      Hashtbl.fold (fun k id acc -> (k, Uf.find c.uf id) :: acc) c.ids []
    in
    let roots = List.sort_uniq Int.compare (List.map snd names) in
    Ok
      (List.map
         (fun r ->
           List.sort String.compare
             (List.filter_map
                (fun (k, r') -> if r = r' then Some k else None)
                names))
         roots)
  with Type_error message -> Error { message; transform = t.name }
