(* The reduced product of three abstract domains over fixed-width
   bitvectors:

   - known bits (lifted from [Ir.Analysis]): per-bit zero/one facts;
   - constant ranges, both unsigned [umin, umax] and signed [smin, smax]
     (inclusive);
   - congruence: value ≡ [offset] (mod [stride]) on the unsigned residue,
     with [stride = 0] encoding the singleton [{offset}] and [stride = 1]
     encoding "no congruence information".

   A value of type [t] describes the *intersection* of the three component
   concretizations. [reduce] propagates facts between components (known
   high bits from range prefixes, range endpoints from known bits, low-bit
   congruences from trailing known bits, ...) until they agree; every
   constructor and transfer function returns reduced values.

   Soundness contract: every transfer function over-approximates — the
   concrete result of the operation on any members of the operand
   concretizations is a member of the result's concretization. Operations
   follow SMT-LIB total semantics (division by zero, over-shift), which
   over-approximates LLVM IR, where those executions are undefined. The
   property tests in [test_absint.ml] check exactly this contract against
   the reference interpreter. *)

type kb = Analysis.known_bits

type t = {
  width : int;
  kb : kb;
  umin : Bitvec.t;
  umax : Bitvec.t;
  smin : Bitvec.t;
  smax : Bitvec.t;
  stride : Bitvec.t;
  offset : Bitvec.t;
}

(* ---- Three-valued (Kleene) logic, shared by every client ---- *)

type tribool = True | False | Unknown

let tri_not = function True -> False | False -> True | Unknown -> Unknown

let tri_and a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let tri_or a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let tri_of_bool b = if b then True else False

(* ---- Small bitvector helpers ---- *)

let bv = Bitvec.of_int

let low_mask w n =
  if n >= w then Bitvec.all_ones w
  else Bitvec.lognot (Bitvec.shl (Bitvec.all_ones w) (bv ~width:w n))

(* Highest set bit position + 1 (0 for zero): the value's bit length. *)
let bitlen x =
  let w = Bitvec.width x in
  w - Bitvec.clz x

(* Smallest all-low-ones pattern covering x: 2^bitlen(x) - 1. *)
let saturate x = low_mask (Bitvec.width x) (bitlen x)

let rec bv_gcd a b =
  if Bitvec.is_zero b then a else bv_gcd b (Bitvec.urem a b)

(* Largest power-of-two divisor (zero for zero). *)
let pow2_part x =
  if Bitvec.is_zero x then x else Bitvec.logand x (Bitvec.neg x)

let umin_bv a b = Bitvec.umin a b
let umax_bv a b = Bitvec.umax a b

(* ---- Component accessors on known bits ---- *)

let kb_known (k : kb) = Bitvec.logor k.Analysis.zeros k.Analysis.ones
let kb_consistent (k : kb) =
  Bitvec.is_zero (Bitvec.logand k.Analysis.zeros k.Analysis.ones)

let kb_umin (k : kb) = k.Analysis.ones
let kb_umax (k : kb) = Bitvec.lognot k.Analysis.zeros

let kb_smin w (k : kb) =
  if Bitvec.bit k.Analysis.zeros (w - 1) then k.Analysis.ones
  else Bitvec.logor k.Analysis.ones (Bitvec.min_signed w)

let kb_smax w (k : kb) =
  if Bitvec.bit k.Analysis.ones (w - 1) then Bitvec.lognot k.Analysis.zeros
  else Bitvec.logand (Bitvec.lognot k.Analysis.zeros) (Bitvec.max_signed w)

(* ---- Construction ---- *)

let top w =
  {
    width = w;
    kb = Analysis.unknown w;
    umin = Bitvec.zero w;
    umax = Bitvec.all_ones w;
    smin = Bitvec.min_signed w;
    smax = Bitvec.max_signed w;
    stride = Bitvec.one w;
    offset = Bitvec.zero w;
  }

let singleton c =
  let w = Bitvec.width c in
  {
    width = w;
    kb = Analysis.of_const c;
    umin = c;
    umax = c;
    smin = c;
    smax = c;
    stride = Bitvec.zero w;
    offset = c;
  }

let is_singleton d = if Bitvec.equal d.umin d.umax then Some d.umin else None

(* Membership, straight off the definition — the test oracle. *)
let contains d x =
  Bitvec.is_zero (Bitvec.logand x d.kb.Analysis.zeros)
  && Bitvec.is_zero (Bitvec.logand (Bitvec.lognot x) d.kb.Analysis.ones)
  && Bitvec.ule d.umin x
  && Bitvec.ule x d.umax
  && Bitvec.sle d.smin x
  && Bitvec.sle x d.smax
  &&
  if Bitvec.is_zero d.stride then Bitvec.equal x d.offset
  else Bitvec.equal (Bitvec.urem x d.stride) d.offset

(* ---- Congruence meet: both claims hold of the same value ----

   Exact when one modulus divides the other (or one side is a singleton);
   otherwise fall back to the coarser claim after a divisibility
   compatibility check, which is the only part that can prove emptiness. *)
let congruence_meet w (s1, o1) (s2, o2) =
  let z = Bitvec.zero w in
  if Bitvec.is_zero s1 && Bitvec.is_zero s2 then
    if Bitvec.equal o1 o2 then Some (s1, o1) else None
  else if Bitvec.is_zero s1 then
    if Bitvec.equal (Bitvec.urem o1 s2) o2 then Some (z, o1) else None
  else if Bitvec.is_zero s2 then
    if Bitvec.equal (Bitvec.urem o2 s1) o1 then Some (z, o2) else None
  else
    let g = bv_gcd s1 s2 in
    let compatible =
      Bitvec.equal (Bitvec.urem o1 g) (Bitvec.urem o2 g)
    in
    if not compatible then None
    else if Bitvec.is_zero (Bitvec.urem s1 s2) then Some (s1, o1)
    else if Bitvec.is_zero (Bitvec.urem s2 s1) then Some (s2, o2)
    else if Bitvec.ule s2 s1 then Some (s1, o1)
    else Some (s2, o2)

(* ---- Reduction ---- *)

let bottom_check d =
  kb_consistent d.kb
  && Bitvec.ule d.umin d.umax
  && Bitvec.sle d.smin d.smax

(* One propagation round; sound deductions only. *)
let reduce_round d =
  let w = d.width in
  let kb = d.kb in
  (* known bits -> unsigned range *)
  let umin = umax_bv d.umin (kb_umin kb) in
  let umax = umin_bv d.umax (kb_umax kb) in
  (* unsigned range -> known bits: the common high prefix of the bounds is
     shared by every value in between. *)
  let kb =
    let diff = Bitvec.logxor umin umax in
    let mask = Bitvec.lognot (saturate diff) in
    {
      Analysis.zeros =
        Bitvec.logor kb.Analysis.zeros
          (Bitvec.logand mask (Bitvec.lognot umin));
      ones = Bitvec.logor kb.Analysis.ones (Bitvec.logand mask umin);
    }
  in
  (* known bits -> signed range *)
  let smin = if Bitvec.slt d.smin (kb_smin w kb) then kb_smin w kb else d.smin in
  let smax = if Bitvec.slt (kb_smax w kb) d.smax then kb_smax w kb else d.smax in
  (* signed range -> known bits: the sign bit, and (when the sign is fixed)
     the common high prefix of the bound *patterns* — on a same-sign
     interval the unsigned pattern order coincides with the signed order. *)
  let kb =
    if not (Bitvec.bit smin (w - 1)) then
      (* smin >= 0: the whole set is non-negative. *)
      { kb with
        Analysis.zeros =
          Bitvec.logor kb.Analysis.zeros (Bitvec.min_signed w) }
    else if Bitvec.bit smax (w - 1) then
      (* smax < 0: the whole set is negative. *)
      { kb with
        Analysis.ones = Bitvec.logor kb.Analysis.ones (Bitvec.min_signed w) }
    else kb
  in
  let kb =
    if Bitvec.bit smin (w - 1) = Bitvec.bit smax (w - 1) then
      let diff = Bitvec.logxor smin smax in
      let mask = Bitvec.lognot (saturate diff) in
      {
        Analysis.zeros =
          Bitvec.logor kb.Analysis.zeros
            (Bitvec.logand mask (Bitvec.lognot smin));
        ones = Bitvec.logor kb.Analysis.ones (Bitvec.logand mask smin);
      }
    else kb
  in
  (* With a known sign bit, signed and unsigned orders agree on the set, so
     the two ranges constrain each other directly (as patterns). *)
  let umin, umax, smin, smax =
    if Bitvec.bit kb.Analysis.zeros (w - 1) || Bitvec.bit kb.Analysis.ones (w - 1)
    then
      let lo = umax_bv umin smin and hi = umin_bv umax smax in
      (lo, hi, lo, hi)
    else (umin, umax, smin, smax)
  in
  (* known low bits -> congruence *)
  let congruence =
    let k = Bitvec.ctz (Bitvec.lognot (kb_known kb)) in
    if k = 0 then Some (d.stride, d.offset)
    else if k >= w then
      congruence_meet w (d.stride, d.offset) (Bitvec.zero w, kb.Analysis.ones)
    else
      congruence_meet w (d.stride, d.offset)
        ( Bitvec.shl (Bitvec.one w) (bv ~width:w k),
          Bitvec.logand kb.Analysis.ones (low_mask w k) )
  in
  match congruence with
  | None -> None
  | Some (stride, offset) ->
      (* congruence -> known bits: a power-of-two stride fixes the low
         bits; a singleton fixes everything. *)
      let kb =
        if Bitvec.is_zero stride then
          let c = Analysis.of_const offset in
          {
            Analysis.zeros = Bitvec.logor kb.Analysis.zeros c.Analysis.zeros;
            ones = Bitvec.logor kb.Analysis.ones c.Analysis.ones;
          }
        else if Bitvec.is_power_of_two stride then begin
          let k = Bitvec.ctz stride in
          let mask = low_mask w k in
          {
            Analysis.zeros =
              Bitvec.logor kb.Analysis.zeros
                (Bitvec.logand mask (Bitvec.lognot offset));
            ones =
              Bitvec.logor kb.Analysis.ones (Bitvec.logand mask offset);
          }
        end
        else kb
      in
      (* a pinched unsigned range is a singleton *)
      let stride, offset =
        if Bitvec.equal umin umax then (Bitvec.zero w, umin)
        else (stride, offset)
      in
      Some { d with kb; umin; umax; smin; smax; stride; offset }

(* Arithmetic mod 2^w only preserves a congruence whose stride divides
   2^w, so transfers may compute offsets with wrapping bitvector
   arithmetic only for power-of-two strides. Weaken every other stride to
   2^ctz(stride) — a divisor of the stride, hence a sound
   over-approximation — before any reduction or transfer sees it. *)
let cong_canon w (stride, offset) =
  if Bitvec.is_zero stride then (stride, offset)
  else if Bitvec.is_power_of_two stride then (stride, Bitvec.urem offset stride)
  else
    let k = Bitvec.ctz stride in
    if k = 0 then (Bitvec.one w, Bitvec.zero w)
    else
      let s = Bitvec.shl (Bitvec.one w) (bv ~width:w k) in
      (s, Bitvec.urem offset s)

let reduce d =
  let stride, offset = cong_canon d.width (d.stride, d.offset) in
  let d = { d with stride; offset } in
  let rec go n d =
    if not (bottom_check d) then None
    else
      match reduce_round d with
      | None -> None
      | Some d' -> if n = 0 || d' = d then Some d' else go (n - 1) d'
  in
  go 3 d

(* Transfers construct component-wise sound values, so reduction of their
   results cannot soundly reach bottom; degrade to top defensively. *)
let reduced d = match reduce d with Some d -> d | None -> top d.width

let of_kb w (k : kb) = reduced { (top w) with kb = k }

let range w lo hi = reduced { (top w) with umin = lo; umax = hi }

let srange w lo hi = reduced { (top w) with smin = lo; smax = hi }

(* ---- Lattice ---- *)

let join a b =
  let w = a.width in
  let kb =
    {
      Analysis.zeros = Bitvec.logand a.kb.Analysis.zeros b.kb.Analysis.zeros;
      ones = Bitvec.logand a.kb.Analysis.ones b.kb.Analysis.ones;
    }
  in
  let stride, offset =
    (* Both claims describe different members now: x ≡ o1 (s1) or
       x ≡ o2 (s2); both satisfy x ≡ o1 (mod gcd(s1, s2, |o1-o2|)). *)
    let diff =
      if Bitvec.ule b.offset a.offset then Bitvec.sub a.offset b.offset
      else Bitvec.sub b.offset a.offset
    in
    let g = bv_gcd (bv_gcd a.stride b.stride) diff in
    if Bitvec.is_zero g then (Bitvec.zero w, a.offset)
    else (g, Bitvec.urem a.offset g)
  in
  reduced
    {
      width = w;
      kb;
      umin = umin_bv a.umin b.umin;
      umax = umax_bv a.umax b.umax;
      smin = (if Bitvec.sle a.smin b.smin then a.smin else b.smin);
      smax = (if Bitvec.sle a.smax b.smax then b.smax else a.smax);
      stride;
      offset;
    }

let meet a b =
  let w = a.width in
  match congruence_meet w (a.stride, a.offset) (b.stride, b.offset) with
  | None -> None
  | Some (stride, offset) ->
      reduce
        {
          width = w;
          kb =
            {
              Analysis.zeros =
                Bitvec.logor a.kb.Analysis.zeros b.kb.Analysis.zeros;
              ones = Bitvec.logor a.kb.Analysis.ones b.kb.Analysis.ones;
            };
          umin = umax_bv a.umin b.umin;
          umax = umin_bv a.umax b.umax;
          smin = (if Bitvec.sle a.smin b.smin then b.smin else a.smin);
          smax = (if Bitvec.sle a.smax b.smax then a.smax else b.smax);
          stride;
          offset;
        }

(* ---- Three-valued comparisons ---- *)

let tri_eq a b =
  match (is_singleton a, is_singleton b) with
  | Some x, Some y -> tri_of_bool (Bitvec.equal x y)
  | _ ->
      if
        (not (Bitvec.is_zero (Bitvec.logand a.kb.Analysis.ones b.kb.Analysis.zeros)))
        || not
             (Bitvec.is_zero (Bitvec.logand a.kb.Analysis.zeros b.kb.Analysis.ones))
      then False
      else if Bitvec.ult a.umax b.umin || Bitvec.ult b.umax a.umin then False
      else if Bitvec.slt a.smax b.smin || Bitvec.slt b.smax a.smin then False
      else
        (* incompatible congruences separate the sets *)
        let g =
          let nz s = if Bitvec.is_zero s then Bitvec.zero a.width else s in
          bv_gcd (nz a.stride) (nz b.stride)
        in
        let residue d g =
          if Bitvec.is_zero g then d.offset else Bitvec.urem d.offset g
        in
        if
          (not (Bitvec.is_zero g))
          && (not (Bitvec.equal g (Bitvec.one a.width)))
          && not (Bitvec.equal (residue a g) (residue b g))
        then False
        else if
          Bitvec.is_zero a.stride && Bitvec.is_zero b.stride
          && not (Bitvec.equal a.offset b.offset)
        then False
        else Unknown

let tri_ult a b =
  if Bitvec.ult a.umax b.umin then True
  else if Bitvec.ule b.umax a.umin then False
  else Unknown

let tri_slt a b =
  if Bitvec.slt a.smax b.smin then True
  else if Bitvec.sle b.smax a.smin then False
  else Unknown

(* ---- Range transfer helpers ---- *)

type urange = Bitvec.t * Bitvec.t
type srange = Bitvec.t * Bitvec.t

let utop w : urange = (Bitvec.zero w, Bitvec.all_ones w)
let stop w : srange = (Bitvec.min_signed w, Bitvec.max_signed w)

let uadd w a b =
  if Bitvec.add_overflows_unsigned a.umax b.umax then utop w
  else (Bitvec.add a.umin b.umin, Bitvec.add a.umax b.umax)

let usub w a b =
  if Bitvec.ule b.umax a.umin then
    (Bitvec.sub a.umin b.umax, Bitvec.sub a.umax b.umin)
  else utop w

let umul w a b =
  if Bitvec.mul_overflows_unsigned a.umax b.umax then utop w
  else (Bitvec.mul a.umin b.umin, Bitvec.mul a.umax b.umax)

let sadd w a b =
  if
    Bitvec.add_overflows_signed a.smin b.smin
    || Bitvec.add_overflows_signed a.smax b.smax
  then stop w
  else (Bitvec.add a.smin b.smin, Bitvec.add a.smax b.smax)

let ssub w a b =
  if
    Bitvec.sub_overflows_signed a.smin b.smax
    || Bitvec.sub_overflows_signed a.smax b.smin
  then stop w
  else (Bitvec.sub a.smin b.smax, Bitvec.sub a.smax b.smin)

let smul w a b =
  let corners =
    [ (a.smin, b.smin); (a.smin, b.smax); (a.smax, b.smin); (a.smax, b.smax) ]
  in
  if List.exists (fun (x, y) -> Bitvec.mul_overflows_signed x y) corners then
    stop w
  else
    let ps = List.map (fun (x, y) -> Bitvec.mul x y) corners in
    let lo = List.fold_left Bitvec.smin (List.hd ps) ps in
    let hi = List.fold_left Bitvec.smax (List.hd ps) ps in
    (lo, hi)

(* ---- Congruence transfer helpers ----

   x ≡ r1 (mod m1) and y ≡ r2 (mod m2) give x ⋄ y ≡ r1 ⋄ r2 modulo
   g = gcd(m1, m2) over the integers (gcd(0, m) = m handles singletons).
   The machine result wraps modulo 2^w; subtracting k·2^w preserves the
   residue exactly when g divides 2^w, i.e. g is a power of two — so when
   the ranges cannot rule out wrap, weaken g to its power-of-two part. *)

let cong_of d = (d.stride, d.offset)

let cong_combine w ~can_wrap g r =
  if Bitvec.is_zero g then (Bitvec.zero w, r)
  else
    let g = if can_wrap then pow2_part g else g in
    if Bitvec.is_zero g || Bitvec.equal g (Bitvec.one w) then
      (Bitvec.one w, Bitvec.zero w)
    else (g, Bitvec.urem r g)

let cong_add w a b =
  let s1, o1 = cong_of a and s2, o2 = cong_of b in
  let g = bv_gcd s1 s2 in
  let can_wrap = Bitvec.add_overflows_unsigned a.umax b.umax in
  cong_combine w ~can_wrap g (Bitvec.add o1 o2)

let cong_sub w a b =
  let s1, o1 = cong_of a and s2, o2 = cong_of b in
  let g = bv_gcd s1 s2 in
  let can_wrap = not (Bitvec.ule b.umax a.umin) in
  (* o1 - o2 may be "negative": adding a multiple of g before reducing
     keeps the residue correct only when no wrap happened, and the
     power-of-two weakening otherwise makes any pattern residue sound. *)
  cong_combine w ~can_wrap g (Bitvec.sub o1 o2)

let cong_mul w a b =
  let s1, o1 = cong_of a and s2, o2 = cong_of b in
  let g = bv_gcd s1 s2 in
  let can_wrap = Bitvec.mul_overflows_unsigned a.umax b.umax in
  cong_combine w ~can_wrap g (Bitvec.mul o1 o2)

let cong_top w = (Bitvec.one w, Bitvec.zero w)

(* ---- The binop transfer ---- *)

let assemble w kb (umin, umax) (smin, smax) (stride, offset) =
  reduced { width = w; kb; umin; umax; smin; smax; stride; offset }

let nonneg d = Bitvec.sle (Bitvec.zero d.width) d.smin
let nonpos d = Bitvec.sle d.smax (Bitvec.zero d.width)
let spos d = Bitvec.slt (Bitvec.zero d.width) d.smin
let sneg d = Bitvec.slt d.smax (Bitvec.zero d.width)

let binop op w a b =
  match is_singleton a, is_singleton b with
  | Some x, Some y -> singleton (Semantics.Bitvec_algebra.binop op x y)
  | _ ->
      let kb = Analysis.transfer_binop op w a.kb b.kb in
      let u, s, c =
        match op with
        | Ir.Add -> (uadd w a b, sadd w a b, cong_add w a b)
        | Ir.Sub -> (usub w a b, ssub w a b, cong_sub w a b)
        | Ir.Mul -> (umul w a b, smul w a b, cong_mul w a b)
        | Ir.Udiv ->
            let u =
              if Bitvec.ult (Bitvec.zero w) b.umin then
                (Bitvec.udiv a.umin b.umax, Bitvec.udiv a.umax b.umin)
              else utop w
            in
            (u, stop w, cong_top w)
        | Ir.Urem ->
            let hi =
              if Bitvec.ult (Bitvec.zero w) b.umin then
                umin_bv a.umax (Bitvec.sub b.umax (Bitvec.one w))
              else a.umax
            in
            ((Bitvec.zero w, hi), stop w, cong_top w)
        | Ir.Sdiv ->
            let s =
              if nonneg a && spos b then (Bitvec.zero w, a.smax)
              else if nonneg a && sneg b then (Bitvec.neg a.smax, Bitvec.zero w)
              else if nonpos a && spos b then (a.smin, Bitvec.zero w)
              else if
                nonpos a && sneg b
                && Bitvec.slt (Bitvec.min_signed w) a.smin
              then (Bitvec.zero w, Bitvec.neg a.smin)
              else stop w
            in
            (utop w, s, cong_top w)
        | Ir.Srem ->
            let s =
              if nonneg a then (Bitvec.zero w, a.smax)
              else if nonpos a then (a.smin, Bitvec.zero w)
              else stop w
            in
            let u = if nonneg a then (Bitvec.zero w, a.umax) else utop w in
            (u, s, cong_top w)
        | Ir.Shl -> (utop w, stop w, cong_top w)
        | Ir.Lshr ->
            ((Bitvec.lshr a.umin b.umax, Bitvec.lshr a.umax b.umin),
             stop w, cong_top w)
        | Ir.Ashr ->
            let lo =
              Bitvec.smin (Bitvec.ashr a.smin b.umin) (Bitvec.ashr a.smin b.umax)
            and hi =
              Bitvec.smax (Bitvec.ashr a.smax b.umin) (Bitvec.ashr a.smax b.umax)
            in
            (utop w, (lo, hi), cong_top w)
        | Ir.And ->
            ((Bitvec.zero w, umin_bv a.umax b.umax), stop w, cong_top w)
        | Ir.Or ->
            ( ( umax_bv a.umin b.umin,
                Bitvec.logor (saturate a.umax) (saturate b.umax) ),
              stop w,
              cong_top w )
        | Ir.Xor ->
            ( (Bitvec.zero w, Bitvec.logor (saturate a.umax) (saturate b.umax)),
              stop w,
              cong_top w )
      in
      assemble w kb u s c

(* ---- Unary and width-change transfers ---- *)

let bnot d =
  let w = d.width in
  (* ~x = -1 - x: monotone decreasing in both orders. *)
  assemble w
    { Analysis.zeros = d.kb.Analysis.ones; ones = d.kb.Analysis.zeros }
    (Bitvec.lognot d.umax, Bitvec.lognot d.umin)
    (Bitvec.lognot d.smax, Bitvec.lognot d.smin)
    (cong_top w)

let neg d = binop Ir.Sub d.width (singleton (Bitvec.zero d.width)) d

let zext d wt =
  let ws = d.width in
  if wt = ws then d
  else
    let kz =
      Bitvec.logor
        (Bitvec.zext d.kb.Analysis.zeros wt)
        (Bitvec.shl (Bitvec.all_ones wt) (bv ~width:wt ws))
    in
    assemble wt
      { Analysis.zeros = kz; ones = Bitvec.zext d.kb.Analysis.ones wt }
      (Bitvec.zext d.umin wt, Bitvec.zext d.umax wt)
      (stop wt)
      ( (if Bitvec.is_zero d.stride then Bitvec.zero wt
         else Bitvec.zext d.stride wt),
        Bitvec.zext d.offset wt )

let sext d wt =
  let ws = d.width in
  if wt = ws then d
  else
    assemble wt
      (Analysis.unknown wt)
      (utop wt)
      (Bitvec.sext d.smin wt, Bitvec.sext d.smax wt)
      (cong_top wt)

let trunc d wt =
  let ws = d.width in
  if wt = ws then d
  else
    assemble wt
      {
        Analysis.zeros = Bitvec.trunc d.kb.Analysis.zeros wt;
        ones = Bitvec.trunc d.kb.Analysis.ones wt;
      }
      (utop wt) (stop wt)
      (* a power-of-two stride <= 2^wt survives truncation *)
      (if
         Bitvec.is_power_of_two d.stride
         && Bitvec.ctz d.stride < wt
       then
         ( Bitvec.trunc d.stride wt,
           Bitvec.trunc (Bitvec.logand d.offset (low_mask ws (Bitvec.ctz d.stride))) wt )
       else if Bitvec.is_zero d.stride then
         (Bitvec.zero wt, Bitvec.trunc d.offset wt)
       else cong_top wt)

let extract ~hi ~lo d =
  if lo = 0 then trunc d (hi + 1)
  else
    let wt = hi - lo + 1 in
    assemble wt
      {
        Analysis.zeros = Bitvec.extract d.kb.Analysis.zeros ~hi ~lo;
        ones = Bitvec.extract d.kb.Analysis.ones ~hi ~lo;
      }
      (utop wt) (stop wt) (cong_top wt)

let concat dhi dlo =
  let wt = dhi.width + dlo.width in
  assemble wt
    {
      Analysis.zeros = Bitvec.concat dhi.kb.Analysis.zeros dlo.kb.Analysis.zeros;
      ones = Bitvec.concat dhi.kb.Analysis.ones dlo.kb.Analysis.ones;
    }
    (utop wt) (stop wt) (cong_top wt)

(* ---- Overflow reasoning on ranges (the WillNotOverflow family) ---- *)

let range_will_not_overflow op ~signed a b =
  let w = a.width in
  if signed then begin
    if (match op with `Mul -> w > 32 | _ -> w > 63) then Unknown
    else
      let open Int64 in
      let lo d = Bitvec.to_signed_int64 d.smin
      and hi d = Bitvec.to_signed_int64 d.smax in
      let la, ha, lb, hb = (lo a, hi a, lo b, hi b) in
      let corners =
        match op with
        | `Add -> [ add la lb; add ha hb ]
        | `Sub -> [ sub la hb; sub ha lb ]
        | `Mul -> [ mul la lb; mul la hb; mul ha lb; mul ha hb ]
      in
      let minv = List.fold_left min (List.hd corners) corners
      and maxv = List.fold_left max (List.hd corners) corners in
      let int_min = neg (shift_left 1L (w - 1))
      and int_max = sub (shift_left 1L (w - 1)) 1L in
      if minv >= int_min && maxv <= int_max then True
      else if minv > int_max || maxv < int_min then False
      else Unknown
  end
  else
    match op with
    | `Add ->
        if not (Bitvec.add_overflows_unsigned a.umax b.umax) then True
        else if Bitvec.add_overflows_unsigned a.umin b.umin then False
        else Unknown
    | `Sub ->
        (* unsigned sub "overflow" = borrow: a < b *)
        if Bitvec.ule b.umax a.umin then True
        else if Bitvec.ult a.umax b.umin then False
        else Unknown
    | `Mul ->
        if not (Bitvec.mul_overflows_unsigned a.umax b.umax) then True
        else if Bitvec.mul_overflows_unsigned a.umin b.umin then False
        else Unknown

(* Exact on two singletons at every width, where the Int64 corner
   arithmetic above gives up: the Bitvec checks are exact up to 64 bits. *)
let tri_will_not_overflow op ~signed a b =
  match (is_singleton a, is_singleton b) with
  | Some x, Some y -> tri_of_bool (not (Bitvec.overflows op ~signed x y))
  | _ -> range_will_not_overflow op ~signed a b

(* ---- Derived predicates shared by lint / opt / infer ---- *)

let tri_is_power_of_two ?(or_zero = false) d =
  match is_singleton d with
  | Some v ->
      tri_of_bool (Bitvec.is_power_of_two v || (or_zero && Bitvec.is_zero v))
  | None ->
      if Bitvec.popcount d.kb.Analysis.ones >= 2 then False
      else if (not or_zero) && Bitvec.is_zero d.umax then False
      else Unknown

let fully_known d =
  match is_singleton d with Some v -> Some v | None -> None
