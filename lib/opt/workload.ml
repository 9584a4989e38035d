open Alive.Ast

type config = {
  seed : int;
  functions : int;
  instructions_per_function : int;
  inject_probability : float;
  zipf_exponent : float;
  widths : int list;
}

let default =
  {
    seed = 42;
    functions = 200;
    instructions_per_function = 40;
    inject_probability = 0.45;
    zipf_exponent = 1.5;
    widths = [ 8; 16; 32 ];
  }

(* Zipf sampling over ranks 0..n-1: rank k with probability ∝ 1/(k+1)^s.
   Precomputed cumulative table + binary search: O(log n) per draw where
   the old linear scan was O(n). Both pick the least k with
   x < cum.(k) (clamped to n-1), and the table is built by the same
   left-to-right float summation the scan performed, so the fix is
   bit-identical to the scan for the same random stream — seeded
   workloads are unchanged. *)
let zipf_sampler st ~n ~s =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cum.(k) <- !acc
  done;
  let total = cum.(n - 1) in
  fun () ->
    let x = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

type gen = {
  st : Random.State.t;
  mutable body : Ir.def list; (* reversed *)
  mutable pool : (int * string) list; (* width, name *)
  mutable next : int;
  params : (string * int) list;
}

let fresh g =
  g.next <- g.next + 1;
  Printf.sprintf "v%d" g.next

let values_of_width g w =
  List.filter_map (fun (w', n) -> if w = w' then Some n else None) g.pool

let random_choice st = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int st (List.length l)))

let random_const g w =
  (* Small constants dominate real code; bias towards them. *)
  let v =
    match Random.State.int g.st 6 with
    | 0 -> 0L
    | 1 -> 1L
    | 2 -> -1L
    | 3 -> Int64.of_int (1 lsl Random.State.int g.st (min w 30)) (* power of 2 *)
    | _ -> Random.State.int64 g.st 256L
  in
  Bitvec.make ~width:w v

let random_value g w =
  match values_of_width g w with
  | [] -> Ir.Const (random_const g w)
  | vs ->
      if Random.State.float g.st 1.0 < 0.3 then Ir.Const (random_const g w)
      else Ir.Var (Option.get (random_choice g.st vs))

let push g width inst =
  let name = fresh g in
  g.body <- { Ir.name; width; inst } :: g.body;
  g.pool <- (width, name) :: g.pool;
  name

(* Random filler instruction at a given width. UB-prone opcodes get benign
   constant operands so the interpreter-based experiments stay defined. *)
let random_filler g w =
  let a = random_value g w in
  let op =
    List.nth
      [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Lshr; Ir.Ashr ]
      (Random.State.int g.st 9)
  in
  let b =
    match op with
    | Ir.Shl | Ir.Lshr | Ir.Ashr ->
        Ir.Const (Bitvec.of_int ~width:w (Random.State.int g.st w))
    | _ -> random_value g w
  in
  ignore (push g w (Ir.Binop (op, [], a, b)))

(* --- Template instantiation --- *)

exception Skip

(* Instantiate a rule's source template at a single width: inputs draw from
   the pool, abstract constants get random values, and the whole thing is
   retried until the precondition holds concretely. Templates that need
   multiple widths (conversions) or i1 machinery beyond select conditions
   raise [Skip]. *)
let instantiate g (rule : Matcher.rule) w =
  let t = rule.Matcher.transform in
  (* A feasible typing at this width resolves every template value's width
     (i1 conditions, icmp results, mixed-width sub-DAGs). *)
  let typing =
    match Alive.Typing.enumerate ~widths:[ w ] ~max_typings:1 t with
    | Ok (env :: _) -> env
    | Ok [] | Error _ -> raise Skip
  in
  let width_of name =
    match Alive.Typing.typ_of_value typing name with
    | Alive.Ast.Int w -> w
    | _ -> raise Skip
    | exception Not_found -> raise Skip
  in
  let consts = ref [] in
  let values = ref [] in
  let value_for name ~width =
    match List.assoc_opt name !values with
    | Some v -> v
    | None ->
        let v = random_value g width in
        values := (name, v) :: !values;
        v
  in
  let const_for name ~width =
    match List.assoc_opt name !consts with
    | Some c -> Ir.Const c
    | None ->
        let c = random_const g width in
        consts := (name, c) :: !consts;
        Ir.Const c
  in
  (* Fresh names for template temporaries. *)
  let temp_names = ref [] in
  let temp_for name =
    match List.assoc_opt name !temp_names with
    | Some n -> n
    | None ->
        let n = fresh g in
        temp_names := (name, n) :: !temp_names;
        n
  in
  let src_defs = Alive.Ast.defined_names t.src in
  let operand { op; ty = _ } ~width =
    match op with
    | Var name when List.mem name src_defs -> Ir.Var (temp_for name)
    | Var name -> value_for name ~width:(width_of name)
    | Undef -> Ir.Undef width
    | ConstOp (Cabs name) -> const_for name ~width:(width_of name)
    | ConstOp e -> (
        let dummy =
          { Ir.fname = "dummy"; params = g.params; body = [];
            ret = Ir.Const (Bitvec.zero w) }
        in
        let env = { Concrete.func = dummy; consts = !consts; values = [] } in
        match Concrete.cexpr env ~width e with
        | Some c -> Ir.Const c
        | None -> raise Skip)
  in
  let defs =
    List.map
      (fun s ->
        match s with
        | Def (name, _, inst) ->
            let dw = width_of name in
            let ir_inst =
              match inst with
              | Binop (op, attrs, a, b) ->
                  Ir.Binop
                    ( ir_binop op,
                      List.map ir_attr attrs,
                      operand a ~width:dw,
                      operand b ~width:dw )
              | Icmp (c, a, b) ->
                  let ow =
                    match (a.op, b.op) with
                    | Var n, _ when not (List.mem n src_defs) -> width_of n
                    | _, Var n when not (List.mem n src_defs) -> width_of n
                    | Var n, _ | _, Var n -> width_of n
                    | _ -> w
                  in
                  Ir.Icmp (ir_cond c, operand a ~width:ow, operand b ~width:ow)
              | Select (c, a, b) ->
                  Ir.Select
                    (operand c ~width:1, operand a ~width:dw, operand b ~width:dw)
              | Conv _ | Copy _ | Alloca _ | Load _ | Gep _ -> raise Skip
            in
            { Ir.name = temp_for name; width = dw; inst = ir_inst }
        | Store _ | Unreachable -> raise Skip)
      t.src
  in
  (defs, !consts, !values)

let try_inject g rule w =
  (* Rejection-sample constants until the precondition holds. *)
  let rec attempt k =
    if k = 0 then ()
    else
      match instantiate g rule w with
      | defs, consts, values ->
          (* Evaluate the precondition against the function as it would be
             after appending (needed for value-based predicates). *)
          let f =
            {
              Ir.fname = "candidate";
              params = g.params;
              body = List.rev_append g.body defs;
              ret = Ir.Const (Bitvec.zero w);
            }
          in
          let env = { Concrete.func = f; consts; values } in
          if Concrete.pred env rule.Matcher.transform.pre then begin
            List.iter
              (fun (d : Ir.def) ->
                g.body <- d :: g.body;
                g.pool <- (d.Ir.width, d.Ir.name) :: g.pool)
              defs
          end
          else attempt (k - 1)
      | exception Skip -> ()
  in
  attempt 8

let generate ?(offset = 0) config rules =
  let st = Random.State.make [| config.seed |] in
  let n_rules = List.length rules in
  let sample_rule = zipf_sampler st ~n:(max 1 n_rules) ~s:config.zipf_exponent in
  let rules_arr = Array.of_list rules in
  List.init config.functions (fun i ->
      let i = i + offset in
      let w = List.nth config.widths (Random.State.int st (List.length config.widths)) in
      let params = List.init 4 (fun k -> (Printf.sprintf "p%d" k, w)) in
      let g =
        { st; body = []; pool = List.map (fun (n, w) -> (w, n)) params;
          next = 0; params }
      in
      let steps = config.instructions_per_function in
      for _ = 1 to steps do
        if n_rules > 0 && Random.State.float st 1.0 < config.inject_probability
        then try_inject g rules_arr.(sample_rule ()) w
        else random_filler g w
      done;
      if g.body = [] then random_filler g w;
      (* Keep the generated computation alive: xor-reduce a sample of the
         width-w values into the return value, so DCE cannot delete the
         injected patterns before the optimizer sees them. *)
      let live = values_of_width g w in
      let sampled =
        List.filteri (fun k _ -> k mod 3 = 0) live |> List.map (fun n -> Ir.Var n)
      in
      (match sampled with
      | [] -> ()
      | first :: rest ->
          let acc =
            List.fold_left
              (fun acc v -> Ir.Var (push g w (Ir.Binop (Ir.Xor, [], acc, v))))
              first rest
          in
          ignore acc);
      let body = List.rev g.body in
      let ret =
        match List.rev body with d :: _ -> Ir.Var d.Ir.name | [] -> assert false
      in
      let f = { Ir.fname = Printf.sprintf "f%d" i; params; body; ret } in
      match Ir.validate f with
      | Ok () -> f
      | Error e -> invalid_arg ("Workload.generate produced invalid IR: " ^ e))

(* Split a large workload into independently-seeded batch configs so the
   Domain pool can generate and optimize millions of functions without
   materializing them all: batch i reuses the base config with
   seed + i and a name offset, keeping the whole stream deterministic
   regardless of scheduling order. *)
let batches config ~batch_size =
  if batch_size <= 0 then invalid_arg "Workload.batches: batch_size <= 0";
  let n = (config.functions + batch_size - 1) / batch_size in
  List.init n (fun i ->
      let offset = i * batch_size in
      let functions = min batch_size (config.functions - offset) in
      (offset, { config with seed = config.seed + i; functions }))
