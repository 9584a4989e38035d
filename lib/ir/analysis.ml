open Ir

type known_bits = { zeros : Bitvec.t; ones : Bitvec.t }

let unknown w = { zeros = Bitvec.zero w; ones = Bitvec.zero w }

let of_const c =
  { zeros = Bitvec.lognot c; ones = c }

(* Ripple-carry bound propagation for addition, LLVM's
   KnownBits::computeForAddCarry. The two extremal sums (all unknown bits
   high vs. all low) bound every reachable carry chain: a result bit is
   known when both operand bits and the incoming carry bit are known, and
   then its value can be read off either extremal sum. Subtraction is
   a + ~b + 1, i.e. the same computation with b's masks swapped and a
   known-one carry-in. *)
let transfer_add_carry w a b ~carry_zero ~carry_one =
  let open Bitvec in
  let max_a = lognot a.zeros and max_b = lognot b.zeros in
  let min_a = a.ones and min_b = b.ones in
  let cin_max = if carry_zero then zero w else one w in
  let cin_min = if carry_one then one w else zero w in
  let possible_sum_zero = add (add max_a max_b) cin_max in
  let possible_sum_one = add (add min_a min_b) cin_min in
  (* Known carry-in of each column, recovered from the extremal sums. *)
  let carry_known_zero =
    lognot (logxor (logxor possible_sum_zero a.zeros) b.zeros)
  in
  let carry_known_one = logxor (logxor possible_sum_one a.ones) b.ones in
  let known =
    logand
      (logand (logor a.zeros a.ones) (logor b.zeros b.ones))
      (logor carry_known_zero carry_known_one)
  in
  {
    zeros = logand (lognot possible_sum_zero) known;
    ones = logand possible_sum_one known;
  }

let fully_known k = Bitvec.is_all_ones (Bitvec.logor k.zeros k.ones)
let known_value k = if fully_known k then Some k.ones else None

(* Mask of the [n] lowest bits at width [w] ([n >= w] gives all ones). *)
let low_mask w n =
  if n >= w then Bitvec.all_ones w
  else Bitvec.lognot (Bitvec.shl (Bitvec.all_ones w) (Bitvec.of_int ~width:w n))

(* Consecutive known-zero low bits / known low bits (of either value). *)
let trailing_known_zeros k = Bitvec.ctz (Bitvec.lognot k.zeros)
let trailing_known k = Bitvec.ctz (Bitvec.lognot (Bitvec.logor k.zeros k.ones))
let leading_known_zeros k = Bitvec.clz (Bitvec.lognot k.zeros)

let sign_known_zero w k = Bitvec.bit k.zeros (w - 1)

(* Known bits of a binary operation from the operands' known bits. Only the
   cheap, obviously sound transfer functions are implemented; everything
   else degrades to unknown, as a must-analysis may. *)
let rec transfer_binop op w a b =
  match (known_value a, known_value b) with
  | Some va, Some vb -> of_const (Semantics.Bitvec_algebra.binop op va vb)
  | _ -> transfer_binop_partial op w a b

and transfer_binop_partial op w a b =
  match op with
  | And ->
      {
        zeros = Bitvec.logor a.zeros b.zeros;
        ones = Bitvec.logand a.ones b.ones;
      }
  | Or ->
      {
        zeros = Bitvec.logand a.zeros b.zeros;
        ones = Bitvec.logor a.ones b.ones;
      }
  | Xor ->
      let known = Bitvec.logand (Bitvec.logor a.zeros a.ones) (Bitvec.logor b.zeros b.ones) in
      let value = Bitvec.logxor a.ones b.ones in
      {
        zeros = Bitvec.logand known (Bitvec.lognot value);
        ones = Bitvec.logand known value;
      }
  | Shl -> (
      (* Constant shift amounts shift the known masks. *)
      match if Bitvec.is_all_ones (Bitvec.logor b.zeros b.ones) then Some b.ones else None with
      | Some amount when Bitvec.ult amount (Bitvec.of_int ~width:w w) ->
          {
            zeros =
              Bitvec.logor (Bitvec.shl a.zeros amount)
                (Bitvec.lognot (Bitvec.shl (Bitvec.all_ones w) amount));
            ones = Bitvec.shl a.ones amount;
          }
      | _ -> unknown w)
  | Lshr -> (
      match if Bitvec.is_all_ones (Bitvec.logor b.zeros b.ones) then Some b.ones else None with
      | Some amount when Bitvec.ult amount (Bitvec.of_int ~width:w w) ->
          {
            zeros =
              Bitvec.logor (Bitvec.lshr a.zeros amount)
                (Bitvec.lognot (Bitvec.lshr (Bitvec.all_ones w) amount));
            ones = Bitvec.lshr a.ones amount;
          }
      | _ -> unknown w)
  | Ashr -> (
      (* A fully-known in-range shift amount shifts the masks
         arithmetically: ashr on [zeros]/[ones] replicates the mask's top
         bit, so the filled positions are known exactly when the sign bit
         was known. *)
      match if Bitvec.is_all_ones (Bitvec.logor b.zeros b.ones) then Some b.ones else None with
      | Some amount when Bitvec.ult amount (Bitvec.of_int ~width:w w) ->
          { zeros = Bitvec.ashr a.zeros amount; ones = Bitvec.ashr a.ones amount }
      | _ -> unknown w)
  | Add -> transfer_add_carry w a b ~carry_zero:true ~carry_one:false
  | Sub ->
      (* a - b = a + ~b + 1. *)
      transfer_add_carry w a { zeros = b.ones; ones = b.zeros }
        ~carry_zero:false ~carry_one:true
  | Mul ->
      (* Two low-end facts compose. Trailing zeros add: a value with [i]
         trailing zeros times one with [j] has at least [i+j]. And the
         product modulo 2^k depends only on the operands modulo 2^k, so
         when both operands' low [k] bits are known the product's are too
         (read off [a.ones * b.ones], whose low [k] bits match any
         concretization's product). *)
      let tz = min w (trailing_known_zeros a + trailing_known_zeros b) in
      let k = min (trailing_known a) (trailing_known b) in
      let prod = Bitvec.mul a.ones b.ones in
      let mask_tz = low_mask w tz and mask_k = low_mask w k in
      {
        zeros =
          Bitvec.logor
            (Bitvec.logand (Bitvec.lognot prod) mask_k)
            mask_tz;
        ones = Bitvec.logand prod mask_k;
      }
  | Udiv -> (
      (* Unsigned division by a known power of two is exactly a logical
         right shift. *)
      match known_value b with
      | Some d when Bitvec.is_power_of_two d ->
          let s = Bitvec.of_int ~width:w (Bitvec.ctz d) in
          {
            zeros =
              Bitvec.logor (Bitvec.lshr a.zeros s)
                (Bitvec.lognot (Bitvec.lshr (Bitvec.all_ones w) s));
            ones = Bitvec.lshr a.ones s;
          }
      | _ -> unknown w)
  | Urem -> (
      (* Remainder by a known power of two keeps exactly the low bits. *)
      match known_value b with
      | Some d when Bitvec.is_power_of_two d ->
          let mask = Bitvec.sub d (Bitvec.one w) in
          {
            zeros = Bitvec.logor a.zeros (Bitvec.lognot mask);
            ones = Bitvec.logand a.ones mask;
          }
      | _ -> unknown w)
  | Sdiv -> (
      (* A provably non-negative dividend divided by a known positive power
         of two truncates towards zero, which coincides with [lshr]. *)
      match known_value b with
      | Some d
        when sign_known_zero w a
             && Bitvec.is_power_of_two d
             && not (Bitvec.bit d (w - 1)) ->
          transfer_binop Udiv w a b
      | _ -> unknown w)
  | Srem ->
      if sign_known_zero w a then begin
        (* SMT-LIB [srem x y] with [x >= 0] lands in [0, x] for every [y]
           (including [srem x 0 = x]), so the dividend's leading known-zero
           run survives; by a power of two it is exactly a low-bit mask. *)
        let high = leading_known_zeros a in
        let base =
          { zeros = Bitvec.lognot (low_mask w (w - high));
            ones = Bitvec.zero w }
        in
        match known_value b with
        | Some d when Bitvec.is_power_of_two d ->
            let mask = Bitvec.sub d (Bitvec.one w) in
            {
              zeros =
                Bitvec.logor base.zeros
                  (Bitvec.logor a.zeros (Bitvec.lognot mask));
              ones = Bitvec.logand a.ones mask;
            }
        | _ -> base
      end
      else unknown w

let known_bits f v =
  let memo : (string, known_bits) Hashtbl.t = Hashtbl.create 16 in
  let rec go v =
    match v with
    | Const c -> of_const c
    | Undef w -> unknown w
    | Var name -> (
        match Hashtbl.find_opt memo name with
        | Some kb -> kb
        | None ->
            let kb =
              match def_of f name with
              | None -> unknown (value_width f v)
              | Some d -> (
                  match d.inst with
                  | Binop (op, _, a, b) -> transfer_binop op d.width (go a) (go b)
                  | Icmp _ ->
                      (* i1 result: nothing known without relational info. *)
                      unknown 1
                  | Select (_, a, b) ->
                      let ka = go a and kb = go b in
                      {
                        zeros = Bitvec.logand ka.zeros kb.zeros;
                        ones = Bitvec.logand ka.ones kb.ones;
                      }
                  | Conv (Zext, a) ->
                      let ka = go a in
                      let aw = value_width f a in
                      {
                        zeros =
                          Bitvec.logor
                            (Bitvec.zext ka.zeros d.width)
                            (Bitvec.shl (Bitvec.all_ones d.width)
                               (Bitvec.of_int ~width:d.width aw));
                        ones = Bitvec.zext ka.ones d.width;
                      }
                  | Conv (Sext, a) ->
                      let ka = go a in
                      (* Sound only for bits below the original sign bit. *)
                      let aw = value_width f a in
                      let low = Bitvec.lshr (Bitvec.all_ones d.width)
                          (Bitvec.of_int ~width:d.width (d.width - aw + 1)) in
                      {
                        zeros = Bitvec.logand (Bitvec.zext ka.zeros d.width) low;
                        ones = Bitvec.logand (Bitvec.zext ka.ones d.width) low;
                      }
                  | Conv (Trunc, a) ->
                      let ka = go a in
                      {
                        zeros = Bitvec.trunc ka.zeros d.width;
                        ones = Bitvec.trunc ka.ones d.width;
                      }
                  | Freeze a -> go a)
            in
            Hashtbl.replace memo name kb;
            kb)
  in
  go v
