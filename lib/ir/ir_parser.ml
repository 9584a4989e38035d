(* A small hand-written tokenizer and recursive-descent parser for the IR
   subset. Deliberately independent of the Alive-language lexer: the IR is a
   substrate, the DSL is the contribution. *)

exception Error of string * int

type token =
  | Ident of string (* keywords, opcodes, i8-style types *)
  | Global of string (* @name *)
  | Local of string (* %name *)
  | Int of int64
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Equals
  | Newline
  | Eof

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let push t = toks := (t, !line) :: !toks in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '\n' then begin
      (match !toks with (Newline, _) :: _ | [] -> () | _ -> push Newline);
      incr line;
      incr i
    end
    else if c = ';' then
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = '{' then (push Lbrace; incr i)
    else if c = '}' then (push Rbrace; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '=' then (push Equals; incr i)
    else if c = '@' || c = '%' then begin
      let start = !i + 1 in
      incr i;
      while !i < n && is_ident text.[!i] do
        incr i
      done;
      let name = String.sub text start (!i - start) in
      if name = "" then raise (Error ("empty identifier", !line));
      push (if c = '@' then Global name else Local name)
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let start = !i in
      incr i;
      while !i < n && ((text.[!i] >= '0' && text.[!i] <= '9') || text.[!i] = 'x') do
        incr i
      done;
      match Int64.of_string_opt (String.sub text start (!i - start)) with
      | Some v -> push (Int v)
      | None -> raise (Error ("bad integer literal", !line))
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident text.[!i] do
        incr i
      done;
      push (Ident (String.sub text start (!i - start)))
    end
    else raise (Error (Printf.sprintf "unexpected character %C" c, !line))
  done;
  push Newline;
  push Eof;
  List.rev !toks

type state = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let fail st msg = raise (Error (msg, line st))

let expect st tok msg = if peek st = tok then advance st else fail st msg

let skip_newlines st =
  while peek st = Newline do
    advance st
  done

let width_of_type st = function
  | Ident s
    when String.length s >= 2
         && s.[0] = 'i'
         && String.for_all (fun c -> c >= '0' && c <= '9')
              (String.sub s 1 (String.length s - 1)) -> (
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some w when 1 <= w && w <= Bitvec.max_width -> w
      | _ ->
          fail st
            (Printf.sprintf "unsupported type %s (widths are 1..%d)" s
               Bitvec.max_width))
  | _ -> fail st "expected a type like i8"

let parse_type st =
  let w = width_of_type st (peek st) in
  advance st;
  w

let looks_like_type st =
  match peek st with
  | Ident s ->
      String.length s >= 2
      && s.[0] = 'i'
      && String.for_all (fun c -> c >= '0' && c <= '9')
           (String.sub s 1 (String.length s - 1))
  | _ -> false

(* An operand with an optional leading type; the width is resolved from the
   annotation, the defined/param environment, or the caller's context. *)
let parse_operand st ~env ~context =
  let ann = if looks_like_type st then Some (parse_type st) else None in
  let width_for name =
    match (ann, Hashtbl.find_opt env name) with
    | Some a, Some w when a <> w ->
        fail st (Printf.sprintf "%%%s is i%d, annotated i%d" name w a)
    | Some w, _ | None, Some w -> w
    | None, None -> fail st (Printf.sprintf "unknown value %%%s" name)
  in
  match peek st with
  | Local name ->
      advance st;
      let w = width_for name in
      (Ir.Var name, w)
  | Int v -> (
      advance st;
      match (ann, context) with
      | Some w, _ | None, Some w -> (Ir.Const (Bitvec.make ~width:w v), w)
      | None, None -> fail st "cannot infer the width of a literal; annotate it")
  | Ident "undef" -> (
      advance st;
      match (ann, context) with
      | Some w, _ | None, Some w -> (Ir.Undef w, w)
      | None, None -> fail st "cannot infer the width of undef; annotate it")
  | Ident (("true" | "false") as b) -> (
      advance st;
      match ann with
      | Some w when w <> 1 ->
          fail st (Printf.sprintf "%s is i1, annotated i%d" b w)
      | Some _ | None -> (Ir.Const (Bitvec.of_bool (b = "true")), 1))
  | _ -> fail st "expected an operand"

let binop_of_name = function
  | "add" -> Some Ir.Add
  | "sub" -> Some Ir.Sub
  | "mul" -> Some Ir.Mul
  | "udiv" -> Some Ir.Udiv
  | "sdiv" -> Some Ir.Sdiv
  | "urem" -> Some Ir.Urem
  | "srem" -> Some Ir.Srem
  | "shl" -> Some Ir.Shl
  | "lshr" -> Some Ir.Lshr
  | "ashr" -> Some Ir.Ashr
  | "and" -> Some Ir.And
  | "or" -> Some Ir.Or
  | "xor" -> Some Ir.Xor
  | _ -> None

let cond_of_name = function
  | "eq" -> Some Ir.Eq
  | "ne" -> Some Ir.Ne
  | "ugt" -> Some Ir.Ugt
  | "uge" -> Some Ir.Uge
  | "ult" -> Some Ir.Ult
  | "ule" -> Some Ir.Ule
  | "sgt" -> Some Ir.Sgt
  | "sge" -> Some Ir.Sge
  | "slt" -> Some Ir.Slt
  | "sle" -> Some Ir.Sle
  | _ -> None

let parse_def st ~env name =
  expect st Equals "expected '='";
  match peek st with
  | Ident op when binop_of_name op <> None ->
      advance st;
      let rec attrs acc =
        match peek st with
        | Ident "nsw" -> advance st; attrs (Ir.Nsw :: acc)
        | Ident "nuw" -> advance st; attrs (Ir.Nuw :: acc)
        | Ident "exact" -> advance st; attrs (Ir.Exact :: acc)
        | _ -> List.rev acc
      in
      let attrs = attrs [] in
      let a, wa = parse_operand st ~env ~context:None in
      expect st Comma "expected ','";
      let b, _ = parse_operand st ~env ~context:(Some wa) in
      { Ir.name; width = wa; inst = Ir.Binop (Option.get (binop_of_name op), attrs, a, b) }
  | Ident "icmp" -> (
      advance st;
      match peek st with
      | Ident c when cond_of_name c <> None ->
          advance st;
          let a, wa = parse_operand st ~env ~context:None in
          expect st Comma "expected ','";
          let b, _ = parse_operand st ~env ~context:(Some wa) in
          { Ir.name; width = 1; inst = Ir.Icmp (Option.get (cond_of_name c), a, b) }
      | _ -> fail st "expected an icmp condition")
  | Ident "select" ->
      advance st;
      let c, _ = parse_operand st ~env ~context:(Some 1) in
      expect st Comma "expected ','";
      let a, wa = parse_operand st ~env ~context:None in
      expect st Comma "expected ','";
      let b, _ = parse_operand st ~env ~context:(Some wa) in
      { Ir.name; width = wa; inst = Ir.Select (c, a, b) }
  | Ident ("zext" | "sext" | "trunc" | "freeze") ->
      let op = match peek st with Ident s -> s | _ -> assert false in
      advance st;
      let a, wa = parse_operand st ~env ~context:None in
      if op = "freeze" then { Ir.name; width = wa; inst = Ir.Freeze a }
      else begin
        expect st (Ident "to") "expected 'to' in conversion";
        let w = parse_type st in
        let conv =
          match op with
          | "zext" -> Ir.Zext
          | "sext" -> Ir.Sext
          | _ -> Ir.Trunc
        in
        { Ir.name; width = w; inst = Ir.Conv (conv, a) }
      end
  | _ -> fail st "expected an instruction"

let parse_one st =
  skip_newlines st;
  expect st (Ident "define") "expected 'define'";
  let ret_width = parse_type st in
  let fname =
    match peek st with
    | Global g -> advance st; g
    | _ -> fail st "expected a function name"
  in
  expect st Lparen "expected '('";
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec params acc =
    if peek st = Rparen then List.rev acc
    else begin
      let w = parse_type st in
      match peek st with
      | Local p ->
          advance st;
          Hashtbl.replace env p w;
          if peek st = Comma then begin
            advance st;
            params ((p, w) :: acc)
          end
          else List.rev ((p, w) :: acc)
      | _ -> fail st "expected a parameter name"
    end
  in
  let params = params [] in
  expect st Rparen "expected ')'";
  expect st Lbrace "expected '{'";
  skip_newlines st;
  let body = ref [] in
  let ret = ref None in
  while !ret = None do
    (match peek st with
    | Local name ->
        advance st;
        let d = parse_def st ~env name in
        Hashtbl.replace env name d.Ir.width;
        body := d :: !body
    | Ident "ret" ->
        advance st;
        let v, w = parse_operand st ~env ~context:(Some ret_width) in
        if w <> ret_width then fail st "return width mismatch";
        ret := Some v
    | _ -> fail st "expected an instruction or ret");
    (match peek st with Newline -> advance st | _ -> ());
    skip_newlines st
  done;
  expect st Rbrace "expected '}'";
  skip_newlines st;
  let f = { Ir.fname; params; body = List.rev !body; ret = Option.get !ret } in
  match Ir.validate f with
  | Ok () -> f
  | Error msg -> raise (Error ("invalid function: " ^ msg, line st))

let with_errors f =
  try Ok (f ()) with Error (msg, l) -> Result.error (Printf.sprintf "line %d: %s" l msg)

let parse_func text =
  with_errors (fun () ->
      let st = { toks = Array.of_list (tokenize text); pos = 0 } in
      let f = parse_one st in
      skip_newlines st;
      if peek st <> Eof then fail st "trailing input";
      f)

let parse_module text =
  with_errors (fun () ->
      let st = { toks = Array.of_list (tokenize text); pos = 0 } in
      let rec go acc =
        skip_newlines st;
        if peek st = Eof then List.rev acc else go (parse_one st :: acc)
      in
      go [])
