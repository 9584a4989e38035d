(* Fixed-width bitvector constants on int64. The representation invariant is
   that bits at positions >= width are zero, so [=] on the record is semantic
   equality. Signed operations sign-extend to 64 bits internally and re-mask
   on the way out. *)

type t = { width : int; bits : int64 }

let max_width = 64

let mask_of_width w =
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let check_width w =
  if w < 1 || w > max_width then
    invalid_arg (Printf.sprintf "Bitvec: width %d out of range 1..64" w)

let make ~width bits =
  check_width width;
  { width; bits = Int64.logand bits (mask_of_width width) }

let of_int ~width n = make ~width (Int64.of_int n)
let zero w = make ~width:w 0L
let one w = make ~width:w 1L
let all_ones w = make ~width:w (-1L)
let min_signed w = make ~width:w (Int64.shift_left 1L (w - 1))
let max_signed w = make ~width:w (Int64.sub (Int64.shift_left 1L (w - 1)) 1L)
let of_bool b = { width = 1; bits = (if b then 1L else 0L) }

let width x = x.width
let to_int64 x = x.bits

(* Sign-extend the [w]-bit pattern [bits] to the full 64 bits. *)
let sext64 w bits =
  if w = 64 then bits
  else
    let shift = 64 - w in
    Int64.shift_right (Int64.shift_left bits shift) shift

let to_signed_int64 x = sext64 x.width x.bits

let to_int x =
  if Int64.compare x.bits (Int64.of_int max_int) > 0 || x.bits < 0L then
    invalid_arg "Bitvec.to_int: value too large"
  else Int64.to_int x.bits

let bit x i =
  i >= 0 && i < x.width
  && Int64.logand (Int64.shift_right_logical x.bits i) 1L = 1L

let is_zero x = x.bits = 0L
let is_all_ones x = x.bits = mask_of_width x.width
let is_true x = x.width = 1 && x.bits = 1L

let equal a b = a.width = b.width && a.bits = b.bits

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else Int64.unsigned_compare a.bits b.bits

let hash x = Hashtbl.hash (x.width, x.bits)

let same_width a b op =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitvec.%s: width mismatch (%d vs %d)" op a.width b.width)

let lift2 op name a b =
  same_width a b name;
  make ~width:a.width (op a.bits b.bits)

let add a b = lift2 Int64.add "add" a b
let sub a b = lift2 Int64.sub "sub" a b
let neg a = make ~width:a.width (Int64.neg a.bits)
let mul a b = lift2 Int64.mul "mul" a b

let udiv a b =
  same_width a b "udiv";
  if b.bits = 0L then all_ones a.width
  else make ~width:a.width (Int64.unsigned_div a.bits b.bits)

let urem a b =
  same_width a b "urem";
  if b.bits = 0L then a
  else make ~width:a.width (Int64.unsigned_rem a.bits b.bits)

(* SMT-LIB bvsdiv: truncating division on sign-extended values; division by
   zero yields 1 or -1 depending on the dividend's sign; INT_MIN / -1 wraps
   (which Int64.div does natively at 64 bits). *)
let sdiv a b =
  same_width a b "sdiv";
  let sa = to_signed_int64 a and sb = to_signed_int64 b in
  if sb = 0L then if sa >= 0L then all_ones a.width else one a.width
  else make ~width:a.width (Int64.div sa sb)

let srem a b =
  same_width a b "srem";
  let sa = to_signed_int64 a and sb = to_signed_int64 b in
  if sb = 0L then a else make ~width:a.width (Int64.rem sa sb)

let logand a b = lift2 Int64.logand "logand" a b
let logor a b = lift2 Int64.logor "logor" a b
let logxor a b = lift2 Int64.logxor "logxor" a b
let lognot a = make ~width:a.width (Int64.lognot a.bits)

let shl a b =
  same_width a b "shl";
  if Int64.unsigned_compare b.bits (Int64.of_int a.width) >= 0 then zero a.width
  else make ~width:a.width (Int64.shift_left a.bits (Int64.to_int b.bits))

let lshr a b =
  same_width a b "lshr";
  if Int64.unsigned_compare b.bits (Int64.of_int a.width) >= 0 then zero a.width
  else make ~width:a.width (Int64.shift_right_logical a.bits (Int64.to_int b.bits))

let ashr a b =
  same_width a b "ashr";
  let sa = to_signed_int64 a in
  if Int64.unsigned_compare b.bits (Int64.of_int a.width) >= 0 then
    make ~width:a.width (Int64.shift_right sa 63)
  else make ~width:a.width (Int64.shift_right sa (Int64.to_int b.bits))

let ult a b =
  same_width a b "ult";
  Int64.unsigned_compare a.bits b.bits < 0

let ule a b =
  same_width a b "ule";
  Int64.unsigned_compare a.bits b.bits <= 0

let slt a b =
  same_width a b "slt";
  Int64.compare (to_signed_int64 a) (to_signed_int64 b) < 0

let sle a b =
  same_width a b "sle";
  Int64.compare (to_signed_int64 a) (to_signed_int64 b) <= 0

let zext x w =
  if w < x.width then invalid_arg "Bitvec.zext: target narrower than source";
  make ~width:w x.bits

let sext x w =
  if w < x.width then invalid_arg "Bitvec.sext: target narrower than source";
  make ~width:w (to_signed_int64 x)

let trunc x w =
  if w > x.width then invalid_arg "Bitvec.trunc: target wider than source";
  make ~width:w x.bits

let extract x ~hi ~lo =
  if lo < 0 || hi >= x.width || hi < lo then
    invalid_arg "Bitvec.extract: bad bit range";
  make ~width:(hi - lo + 1) (Int64.shift_right_logical x.bits lo)

let concat hi lo =
  let w = hi.width + lo.width in
  check_width w;
  make ~width:w (Int64.logor (Int64.shift_left hi.bits lo.width) lo.bits)

let popcount x =
  let rec go acc bits =
    if bits = 0L then acc
    else go (acc + 1) (Int64.logand bits (Int64.sub bits 1L))
  in
  go 0 x.bits

let ctz x =
  if x.bits = 0L then x.width
  else
    let rec go i =
      if Int64.logand (Int64.shift_right_logical x.bits i) 1L = 1L then i
      else go (i + 1)
    in
    go 0

let clz x =
  if x.bits = 0L then x.width
  else
    let rec go i =
      if Int64.logand (Int64.shift_right_logical x.bits i) 1L = 1L then
        x.width - 1 - i
      else go (i - 1)
    in
    go (x.width - 1)

let is_power_of_two x =
  x.bits <> 0L && Int64.logand x.bits (Int64.sub x.bits 1L) = 0L

let log2 x = of_int ~width:x.width (if x.bits = 0L then 0 else x.width - 1 - clz x)

let abs x = if bit x (x.width - 1) then neg x else x
let umax a b = if ult a b then b else a
let umin a b = if ult a b then a else b
let smax a b = if slt a b then b else a
let smin a b = if slt a b then a else b

(* Overflow checks per Table 2: an operation overflows iff performing it at
   one extra bit of precision (2x precision for mul) disagrees with the
   extension of the truncated result. Widths are <= 64, so a 65-bit add is
   simulated by checking the Table 2 identity directly at width+1 <= 65...
   instead we use the arithmetic characterizations, which stay within 64
   bits. *)
let add_overflows_signed a b =
  let r = add a b in
  let sa = bit a (a.width - 1) and sb = bit b (b.width - 1) in
  sa = sb && bit r (r.width - 1) <> sa

let add_overflows_unsigned a b = ult (add a b) a

let sub_overflows_signed a b =
  let r = sub a b in
  let sa = bit a (a.width - 1) and sb = bit b (b.width - 1) in
  sa <> sb && bit r (r.width - 1) <> sa

let sub_overflows_unsigned a b = ult a b

let mul_overflows_unsigned a b =
  if a.bits = 0L || b.bits = 0L then false
  else if a.width <= 32 then
    Int64.unsigned_compare (Int64.mul a.bits b.bits) (mask_of_width a.width) > 0
  else
    (* At widths > 32 the product can exceed 64 bits; recover via division. *)
    let p = mul a b in
    not (equal (udiv p b) a)

let mul_overflows_signed a b =
  if a.bits = 0L || b.bits = 0L then false
  else if a.width <= 32 then
    let p = Int64.mul (to_signed_int64 a) (to_signed_int64 b) in
    p <> sext64 a.width (Int64.logand p (mask_of_width a.width))
  else
    let p = mul a b in
    (equal b (all_ones a.width) && equal a (min_signed a.width))
    || not (equal (sdiv p b) a)

let overflows op ~signed =
  match (op, signed) with
  | `Add, true -> add_overflows_signed
  | `Add, false -> add_overflows_unsigned
  | `Sub, true -> sub_overflows_signed
  | `Sub, false -> sub_overflows_unsigned
  | `Mul, true -> mul_overflows_signed
  | `Mul, false -> mul_overflows_unsigned

let to_string_hex x = Printf.sprintf "0x%LX" x.bits
let to_string_unsigned x = Printf.sprintf "%Lu" x.bits
let to_string_signed x = Int64.to_string (to_signed_int64 x)

let pp ppf x =
  let u = to_string_unsigned x and s = to_string_signed x in
  if String.equal u s then Format.fprintf ppf "%s (%s)" (to_string_hex x) u
  else Format.fprintf ppf "%s (%s, %s)" (to_string_hex x) u s

let of_string ~width s =
  check_width width;
  let fail () = invalid_arg (Printf.sprintf "Bitvec.of_string: %S" s) in
  let parse_u s =
    (* Unsigned decimal that may exceed Int64.max_int at width 64. *)
    match Int64.of_string_opt ("0u" ^ s) with Some v -> v | None -> fail ()
  in
  if s = "" then fail ()
  else if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
  then
    match Int64.of_string_opt ("0x" ^ String.sub s 2 (String.length s - 2))
    with
    | Some v -> make ~width v
    | None -> fail ()
  else if s.[0] = '-' then
    make ~width (Int64.neg (parse_u (String.sub s 1 (String.length s - 1))))
  else make ~width (parse_u s)
