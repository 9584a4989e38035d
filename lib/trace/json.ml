(* A minimal JSON printer and parser — enough for stats records, trace
   files and the performance ledger, without pulling a JSON library into
   the dependency set. It sits in the bottom-of-stack tracing layer so
   every library above can emit JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of 15, 16 and 17 significant digits that reads back as
   the same float; 17 always does. *)
let float_digits f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (float_digits f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (String k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let to_file path j =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string j);
      Out_channel.output_char oc '\n')

(* --- Parsing (for `perf diff` and the golden-trace tests) --- *)

exception Parse_failure of string * int  (** message, byte offset *)

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_failure (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let keyword kw v =
    let k = String.length kw in
    if !pos + k <= n && String.sub s !pos k = kw then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ kw)
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                (* Four hex digits after the current position; leaves [pos]
                   on the last digit (the shared [incr pos] below steps past
                   it). *)
                let read_hex4 () =
                  if !pos + 4 >= n then fail "truncated \\u escape";
                  let v = ref 0 in
                  for k = 1 to 4 do
                    let d =
                      match s.[!pos + k] with
                      | '0' .. '9' as c -> Char.code c - Char.code '0'
                      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                      | _ -> fail "bad \\u escape"
                    in
                    v := (!v * 16) + d
                  done;
                  pos := !pos + 4;
                  !v
                in
                let cp = read_hex4 () in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* High surrogate: only valid as the first half of a
                     \uD8xx\uDCxx pair encoding a non-BMP code point. *)
                  if !pos + 2 >= n || s.[!pos + 1] <> '\\' || s.[!pos + 2] <> 'u'
                  then fail "unpaired high surrogate";
                  pos := !pos + 2;
                  let lo = read_hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail "unpaired high surrogate";
                  add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  fail "lone low surrogate"
                else add_utf8 buf cp
            | _ -> fail "bad escape");
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let is_num_char c =
      match c with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    let floaty =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    if floaty then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> String (string_lit ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go ()
        | Some '}' -> incr pos
        | _ -> fail "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go ()
        | Some ']' -> incr pos
        | _ -> fail "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_failure (msg, at) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* --- Accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
