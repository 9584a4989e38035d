(* The tier-0 static analysis stack, tested against executable oracles:
   - Domain transfers against concrete SMT-LIB arithmetic (membership is
     [Domain.contains], the definitional oracle), randomized at widths
     {1, 4, 7, 8} and exhaustively at small widths;
   - Analysis.transfer_binop against the Interp reference semantics,
     exhaustively at widths 1-5 for the PR-7 ops (mul, udiv, urem, sdiv,
     srem);
   - Demand against the interpreter: flipping a non-demanded input bit
     never changes a run's outcome;
   - the prover and Refine.static_report against the corpus: it must
     discharge the easy entries, never an expected-invalid one, and agree
     with the SAT path on a sample. *)

module Dom = Alive_absint.Domain
module Prover = Alive_absint.Prover
module Demand = Alive_absint.Demand
module Normal = Alive_absint.Normal
module T = Alive_smt.Term
module Refine = Alive.Refine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_binops =
  [
    Ir.Add; Ir.Sub; Ir.Mul; Ir.Udiv; Ir.Sdiv; Ir.Urem; Ir.Srem; Ir.Shl;
    Ir.Lshr; Ir.Ashr; Ir.And; Ir.Or; Ir.Xor;
  ]

let pp_op = function
  | Ir.Add -> "add"
  | Ir.Sub -> "sub"
  | Ir.Mul -> "mul"
  | Ir.Udiv -> "udiv"
  | Ir.Sdiv -> "sdiv"
  | Ir.Urem -> "urem"
  | Ir.Srem -> "srem"
  | Ir.Shl -> "shl"
  | Ir.Lshr -> "lshr"
  | Ir.Ashr -> "ashr"
  | Ir.And -> "and"
  | Ir.Or -> "or"
  | Ir.Xor -> "xor"

(* ---- Random abstract values with witness members ---- *)

let rand_bv st w = Bitvec.of_int ~width:w (Random.State.int st (1 lsl w))

(* An abstract value together with sample members it must contain; every
   construction is sound by definition (singleton, join, range hull). *)
let rand_domain st w =
  match Random.State.int st 5 with
  | 0 ->
      let v = rand_bv st w in
      (Dom.singleton v, [ v ])
  | 1 ->
      let vs = List.init (2 + Random.State.int st 3) (fun _ -> rand_bv st w) in
      ( List.fold_left
          (fun d v -> Dom.join d (Dom.singleton v))
          (Dom.singleton (List.hd vs))
          (List.tl vs),
        vs )
  | 2 ->
      let a = rand_bv st w and b = rand_bv st w in
      let lo = Bitvec.umin a b and hi = Bitvec.umax a b in
      let span = Bitvec.add (Bitvec.sub hi lo) (Bitvec.one w) in
      let mid =
        if Bitvec.is_zero span then rand_bv st w
        else Bitvec.add lo (Bitvec.urem (rand_bv st w) span)
      in
      (Dom.range w lo hi, [ lo; hi; mid ])
  | 3 ->
      let a = rand_bv st w and b = rand_bv st w in
      let lo = Bitvec.smin a b and hi = Bitvec.smax a b in
      (Dom.srange w lo hi, [ lo; hi ])
  | _ -> (Dom.top w, List.init 3 (fun _ -> rand_bv st w))

let pp_dom (d : Dom.t) =
  Printf.sprintf
    "{w=%d kb0=%s kb1=%s u=[%s,%s] s=[%s,%s] stride=%s offset=%s}" d.Dom.width
    (Bitvec.to_string_unsigned d.Dom.kb.Analysis.zeros)
    (Bitvec.to_string_unsigned d.Dom.kb.Analysis.ones)
    (Bitvec.to_string_unsigned d.Dom.umin)
    (Bitvec.to_string_unsigned d.Dom.umax)
    (Bitvec.to_string_signed d.Dom.smin)
    (Bitvec.to_string_signed d.Dom.smax)
    (Bitvec.to_string_unsigned d.Dom.stride)
    (Bitvec.to_string_unsigned d.Dom.offset)

let memberships_hold name d vs =
  List.iter
    (fun v ->
      if not (Dom.contains d v) then
        Alcotest.failf "%s: constructed domain misses witness %s" name
          (Bitvec.to_string_unsigned v))
    vs

(* ---- Domain transfer soundness (randomized, widths 1/4/7/8) ---- *)

let test_binop_sound () =
  let st = Random.State.make [| 0x5eed |] in
  List.iter
    (fun w ->
      for _ = 1 to 200 do
        let da, xs = rand_domain st w and db, ys = rand_domain st w in
        memberships_hold "lhs" da xs;
        memberships_hold "rhs" db ys;
        List.iter
          (fun op ->
            let r = Dom.binop op w da db in
            List.iter
              (fun x ->
                List.iter
                  (fun y ->
                    let c = Semantics.Bitvec_algebra.binop op x y in
                    if not (Dom.contains r c) then
                      Alcotest.failf
                        "%s i%d: %s ⋄ %s = %s escapes the transfer\n\
                         da=%s\ndb=%s\nr=%s" (pp_op op) w
                        (Bitvec.to_string_unsigned x)
                        (Bitvec.to_string_unsigned y)
                        (Bitvec.to_string_unsigned c) (pp_dom da) (pp_dom db)
                        (pp_dom r))
                  ys)
              xs)
          all_binops
      done)
    [ 1; 4; 7; 8 ]

let test_unops_sound () =
  let st = Random.State.make [| 0xab5 |] in
  List.iter
    (fun w ->
      for _ = 1 to 300 do
        let d, xs = rand_domain st w in
        List.iter
          (fun x ->
            let checks =
              [
                ("bnot", Dom.bnot d, Bitvec.lognot x);
                ("neg", Dom.neg d, Bitvec.neg x);
                ("zext", Dom.zext d (w + 3), Bitvec.zext x (w + 3));
                ("sext", Dom.sext d (w + 3), Bitvec.sext x (w + 3));
                ("trunc", Dom.trunc d 1, Bitvec.trunc x 1);
                ( "extract",
                  Dom.extract ~hi:(w - 1) ~lo:0 d,
                  Bitvec.extract ~hi:(w - 1) ~lo:0 x );
                ("concat", Dom.concat d d, Bitvec.concat x x);
              ]
            in
            List.iter
              (fun (name, rd, c) ->
                if not (Dom.contains rd c) then
                  Alcotest.failf "%s i%d: %s escapes" name w
                    (Bitvec.to_string_unsigned c))
              checks)
          xs
      done)
    [ 1; 4; 7; 8 ]

let test_comparisons_sound () =
  let st = Random.State.make [| 0xc43 |] in
  List.iter
    (fun w ->
      for _ = 1 to 400 do
        let da, xs = rand_domain st w and db, ys = rand_domain st w in
        let check name tri holds =
          match tri with
          | Dom.Unknown -> ()
          | Dom.True ->
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      if not (holds x y) then
                        Alcotest.failf "%s i%d: True but %s/%s disagrees" name
                          w (Bitvec.to_string_unsigned x) (Bitvec.to_string_unsigned y))
                    ys)
                xs
          | Dom.False ->
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      if holds x y then
                        Alcotest.failf "%s i%d: False but %s/%s agrees" name w
                          (Bitvec.to_string_unsigned x) (Bitvec.to_string_unsigned y))
                    ys)
                xs
        in
        check "eq" (Dom.tri_eq da db) Bitvec.equal;
        check "ult" (Dom.tri_ult da db) Bitvec.ult;
        check "slt" (Dom.tri_slt da db) Bitvec.slt
      done)
    [ 1; 4; 7; 8 ]

let overflows op ~signed ~w x y =
  if signed then begin
    let sx = Bitvec.to_signed_int64 x and sy = Bitvec.to_signed_int64 y in
    let r =
      match op with
      | `Add -> Int64.add sx sy
      | `Sub -> Int64.sub sx sy
      | `Mul -> Int64.mul sx sy
    in
    let lo = Int64.neg (Int64.shift_left 1L (w - 1))
    and hi = Int64.sub (Int64.shift_left 1L (w - 1)) 1L in
    r < lo || r > hi
  end
  else begin
    let ux = Bitvec.to_int64 x and uy = Bitvec.to_int64 y in
    let r =
      match op with
      | `Add -> Int64.add ux uy
      | `Sub -> Int64.sub ux uy
      | `Mul -> Int64.mul ux uy
    in
    r < 0L || r >= Int64.shift_left 1L w
  end

let test_overflow_predicates_sound () =
  let st = Random.State.make [| 0x0f1 |] in
  List.iter
    (fun w ->
      for _ = 1 to 400 do
        let da, xs = rand_domain st w and db, ys = rand_domain st w in
        List.iter
          (fun op ->
            List.iter
              (fun signed ->
                match Dom.tri_will_not_overflow op ~signed da db with
                | Dom.Unknown -> ()
                | Dom.True ->
                    List.iter
                      (fun x ->
                        List.iter
                          (fun y ->
                            if overflows op ~signed ~w x y then
                              Alcotest.failf
                                "wno i%d signed=%b: True but %s/%s overflows"
                                w signed (Bitvec.to_string_unsigned x)
                                (Bitvec.to_string_unsigned y))
                          ys)
                      xs
                | Dom.False ->
                    List.iter
                      (fun x ->
                        List.iter
                          (fun y ->
                            if not (overflows op ~signed ~w x y) then
                              Alcotest.failf
                                "wno i%d signed=%b: False but %s/%s is fine" w
                                signed (Bitvec.to_string_unsigned x) (Bitvec.to_string_unsigned y))
                          ys)
                      xs)
              [ true; false ])
          [ `Add; `Sub; `Mul ]
      done)
    [ 4; 7; 8 ]

let test_pow2_predicate_sound () =
  let st = Random.State.make [| 0x9d2 |] in
  List.iter
    (fun w ->
      for _ = 1 to 500 do
        let d, xs = rand_domain st w in
        List.iter
          (fun or_zero ->
            let is_p2 v =
              (or_zero && Bitvec.is_zero v)
              || ((not (Bitvec.is_zero v))
                 && Bitvec.is_zero
                      (Bitvec.logand v (Bitvec.sub v (Bitvec.one w))))
            in
            match Dom.tri_is_power_of_two ~or_zero d with
            | Dom.Unknown -> ()
            | Dom.True ->
                List.iter
                  (fun x ->
                    if not (is_p2 x) then
                      Alcotest.failf "pow2 i%d: True but %s is not" w
                        (Bitvec.to_string_unsigned x))
                  xs
            | Dom.False ->
                List.iter
                  (fun x ->
                    if is_p2 x then
                      Alcotest.failf "pow2 i%d: False but %s is" w
                        (Bitvec.to_string_unsigned x))
                  xs)
          [ true; false ]
      done)
    [ 1; 4; 8 ]

(* ---- Exhaustive product soundness at i2 (every kb pair, every op) ---- *)

let test_exhaustive_i2 () =
  let w = 2 in
  let bv v = Bitvec.of_int ~width:w v in
  (* all known-bits values: (mask of known bits, their value) *)
  let kbs =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun v -> if v land lnot m land 3 = 0 then Some (m, v) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let doms =
    List.map
      (fun (m, v) ->
        ( Dom.of_kb w { Analysis.zeros = bv (m land lnot v land 3); ones = bv v },
          List.filter (fun x -> x land m = v) [ 0; 1; 2; 3 ] ))
      kbs
  in
  List.iter
    (fun op ->
      List.iter
        (fun (da, xs) ->
          List.iter
            (fun (db, ys) ->
              let r = Dom.binop op w da db in
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      let c = Semantics.Bitvec_algebra.binop op (bv x) (bv y) in
                      if not (Dom.contains r c) then
                        Alcotest.failf "i2 %s: %d ⋄ %d = %s escapes" (pp_op op)
                          x y (Bitvec.to_string_unsigned c))
                    ys)
                xs)
            doms)
        doms)
    all_binops

(* ---- Satellite 1: Analysis.transfer_binop vs Interp, widths 1-5 ---- *)

let kb_contains (k : Analysis.known_bits) c =
  Bitvec.is_zero (Bitvec.logand c k.Analysis.zeros)
  && Bitvec.is_zero (Bitvec.logand k.Analysis.ones (Bitvec.lognot c))

let test_transfer_vs_interp () =
  List.iter
    (fun op ->
      for w = 1 to 5 do
        let n = 1 lsl w in
        let bv v = Bitvec.of_int ~width:w v in
        let f =
          {
            Ir.fname = "t";
            params = [ ("x", w); ("y", w) ];
            body =
              [
                {
                  Ir.name = "r";
                  width = w;
                  inst = Ir.Binop (op, [], Ir.Var "x", Ir.Var "y");
                };
              ];
            ret = Ir.Var "r";
          }
        in
        (* reference results; None = UB or poison (vacuous for the
           analysis, which only speaks about defined executions) *)
        let table = Array.make (n * n) None in
        for x = 0 to n - 1 do
          for y = 0 to n - 1 do
            match Interp.run f [ bv x; bv y ] with
            | Ok (Interp.Ret (Interp.Val c)) -> table.((x * n) + y) <- Some c
            | Ok _ | Error _ -> ()
          done
        done;
        (* every abstraction (mask of known bits, their value) with its
           concretization list *)
        let abstr = ref [] in
        for m = 0 to n - 1 do
          for v = 0 to n - 1 do
            if v land lnot m land (n - 1) = 0 then
              abstr :=
                ( {
                    Analysis.zeros = bv (m land lnot v land (n - 1));
                    ones = bv v;
                  },
                  List.filter
                    (fun x -> x land m = v)
                    (List.init n Fun.id) )
                :: !abstr
          done
        done;
        List.iter
          (fun (ka, xs) ->
            List.iter
              (fun (kb, ys) ->
                let r = Analysis.transfer_binop op w ka kb in
                List.iter
                  (fun x ->
                    List.iter
                      (fun y ->
                        match table.((x * n) + y) with
                        | Some c when not (kb_contains r c) ->
                            Alcotest.failf
                              "transfer %s i%d: %d ⋄ %d = %s escapes"
                              (pp_op op) w x y (Bitvec.to_string_unsigned c)
                        | _ -> ())
                      ys)
                  xs)
              !abstr)
          !abstr
      done)
    [ Ir.Mul; Ir.Udiv; Ir.Urem; Ir.Sdiv; Ir.Srem ]

(* Two singletons are answered exactly at every width, where the range
   corner arithmetic gives up (signed add/sub above w=63, mul above w=32):
   against integer arithmetic on every pair at widths 1-4, and against the
   Bitvec checks on random pairs at the widths the ranges cannot reach. *)
let test_will_not_overflow_singletons () =
  let ops =
    List.concat_map (fun op -> [ (op, true); (op, false) ]) [ `Add; `Sub; `Mul ]
  in
  let check w x y ~expect =
    List.iter
      (fun (op, signed) ->
        let got =
          Dom.tri_will_not_overflow op ~signed (Dom.singleton x) (Dom.singleton y)
        in
        if got <> Dom.tri_of_bool (not (expect op ~signed x y)) then
          Alcotest.failf "tri_will_not_overflow i%d signed=%b on %s, %s" w signed
            (Bitvec.to_string_hex x) (Bitvec.to_string_hex y))
      ops
  in
  for w = 1 to 4 do
    for x = 0 to (1 lsl w) - 1 do
      for y = 0 to (1 lsl w) - 1 do
        check w (Bitvec.of_int ~width:w x) (Bitvec.of_int ~width:w y)
          ~expect:(overflows ~w)
      done
    done
  done;
  let st = Random.State.make [| 0x0f64 |] in
  List.iter
    (fun w ->
      for _ = 1 to 300 do
        let r () = Bitvec.make ~width:w (Random.State.bits64 st) in
        check w (r ()) (r ()) ~expect:Bitvec.overflows
      done;
      (* the i64 disagreement that blocked verified rules *)
      let c = Bitvec.of_int ~width:w in
      check w (c 5) (c 7) ~expect:Bitvec.overflows;
      check w (Bitvec.max_signed w) (c 1) ~expect:Bitvec.overflows)
    [ 33; 63; 64 ]

(* ---- Demanded bits ---- *)

let def name width inst = { Ir.name; width; inst }

let demand_funcs =
  [
    (* only the low two bits survive the trunc *)
    {
      Ir.fname = "trunc";
      params = [ ("x", 4) ];
      body = [ def "r" 2 (Ir.Conv (Ir.Trunc, Ir.Var "x")) ];
      ret = Ir.Var "r";
    };
    (* add feeds an and-mask: carries never flow down, so only the low
       two bits of both inputs are demanded *)
    {
      Ir.fname = "addmask";
      params = [ ("x", 4); ("y", 4) ];
      body =
        [
          def "a" 4 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y"));
          def "r" 4 (Ir.Binop (Ir.And, [], Ir.Var "a", Ir.Const (Bitvec.of_int ~width:4 3)));
        ];
      ret = Ir.Var "r";
    };
    (* shift by a constant moves the demanded window *)
    {
      Ir.fname = "shl2";
      params = [ ("x", 4) ];
      body = [ def "r" 4 (Ir.Binop (Ir.Shl, [], Ir.Var "x", Ir.Const (Bitvec.of_int ~width:4 2))) ];
      ret = Ir.Var "r";
    };
    (* division demands everything *)
    {
      Ir.fname = "div";
      params = [ ("x", 4); ("y", 4) ];
      body = [ def "r" 4 (Ir.Binop (Ir.Udiv, [], Ir.Var "x", Ir.Var "y")) ];
      ret = Ir.Var "r";
    };
  ]

let test_demand_masks () =
  let dem f name = Bitvec.to_int64 (Demand.demanded_of f name) in
  let f = List.nth demand_funcs 0 in
  check_int "trunc demands low 2" 3 (Int64.to_int (dem f "x"));
  let f = List.nth demand_funcs 1 in
  check_int "addmask demands low 2 of x" 3 (Int64.to_int (dem f "x"));
  check_int "addmask demands low 2 of y" 3 (Int64.to_int (dem f "y"));
  let f = List.nth demand_funcs 2 in
  check_int "shl 2 demands low 2 bits" 3 (Int64.to_int (dem f "x"));
  let f = List.nth demand_funcs 3 in
  check_int "udiv demands all of x" 15 (Int64.to_int (dem f "x"));
  check_int "udiv demands all of y" 15 (Int64.to_int (dem f "y"))

(* Flipping any non-demanded bit of any input leaves the outcome
   identical — the defining property of the analysis. *)
let test_demand_property () =
  List.iter
    (fun (f : Ir.func) ->
      let widths = List.map snd f.Ir.params in
      let names = List.map fst f.Ir.params in
      let masks = List.map (fun n -> Demand.demanded_of f n) names in
      let rec enum acc = function
        | [] -> [ List.rev acc ]
        | w :: rest ->
            List.concat_map
              (fun v -> enum (Bitvec.of_int ~width:w v :: acc) rest)
              (List.init (1 lsl w) Fun.id)
      in
      List.iter
        (fun args ->
          let base = Interp.run ~policy:Interp.Zero f args in
          List.iteri
            (fun i mask ->
              let w = List.nth widths i in
              for bit = 0 to w - 1 do
                if not (Bitvec.bit mask bit) then begin
                  let flipped =
                    List.mapi
                      (fun j a ->
                        if j = i then
                          Bitvec.logxor a
                            (Bitvec.shl (Bitvec.one w) (Bitvec.of_int ~width:w bit))
                        else a)
                      args
                  in
                  if Interp.run ~policy:Interp.Zero f flipped <> base then
                    Alcotest.failf
                      "%s: flipping non-demanded bit %d of %s changed the \
                       outcome"
                      f.Ir.fname bit (List.nth names i)
                end
              done)
            masks)
        (enum [] widths))
    demand_funcs

(* ---- Normalizer ---- *)

let test_normalizer () =
  let x = T.var "x" (T.Bv 8) and y = T.var "y" (T.Bv 8) in
  let two = T.const (Bitvec.of_int ~width:8 2) in
  check_bool "x+x = 2x as shl" true
    (Normal.decide_eq (T.add x x) (T.shl x (T.one 8)) = Dom.True);
  check_bool "x+x = mul x 2" true
    (Normal.decide_eq (T.add x x) (T.mul x two) = Dom.True);
  check_bool "x - x = 0" true
    (Normal.decide_eq (T.sub x x) (T.zero 8) = Dom.True);
  check_bool "~x = -x - 1" true
    (Normal.decide_eq (T.bnot x) (T.sub (T.bneg x) (T.one 8)) = Dom.True);
  check_bool "x+1 ≠ x" true
    (Normal.decide_eq (T.add x (T.one 8)) x = Dom.False);
  check_bool "x vs y undecided" true
    (Normal.decide_eq x y = Dom.Unknown);
  (* a ^ b = a + b under a disjointness oracle *)
  let disjoint _ _ = true in
  check_bool "disjoint xor is add" true
    (Normal.decide_eq ~disjoint (T.bxor x y) (T.add x y) = Dom.True)

(* ---- Prover ---- *)

let test_prover_units () =
  let x = T.var "x" (T.Bv 8) in
  check_bool "x+0 = x is valid" true
    (Prover.prove_valid (T.eq (T.add x (T.zero 8)) x));
  check_bool "x+x = x<<1 is valid" true
    (Prover.prove_valid (T.eq (T.add x x) (T.shl x (T.one 8))));
  check_bool "x = 0 is not valid" false
    (Prover.prove_valid (T.eq x (T.zero 8)));
  check_bool "x & 0 = 0 is valid" true
    (Prover.prove_valid (T.eq (T.band x (T.zero 8)) (T.zero 8)));
  check_bool "ult is irreflexive" true
    (Prover.prove_valid (T.not_ (T.ult x x)));
  (* the exists prefix (source undef) is ignored: ∀-validity suffices *)
  check_bool "exists prefix accepted" true
    (Prover.prove_valid
       ~exists:[ ("u", T.Bv 8) ]
       (T.eq (T.add x (T.zero 8)) x))

let parse1 text =
  match Alive.Parser.parse_file text with
  | [ t ] -> t
  | _ -> Alcotest.fail "expected exactly one transform"

let test_static_report_easy () =
  List.iter
    (fun text ->
      match Refine.static_report (parse1 text) with
      | Ok s ->
          check_bool
            (Printf.sprintf "statically complete: %s" (String.escaped text))
            true s.Refine.static_complete
      | Error e -> Alcotest.failf "static_report: %s" e)
    [
      "%r = add %x, 0\n=>\n%r = %x\n";
      "%r = add %x, %x\n=>\n%r = shl %x, 1\n";
      "%r = or %x, %x\n=>\n%r = %x\n";
      "%r = and %x, %x\n=>\n%r = %x\n";
      "%r = mul %x, 2\n=>\n%r = shl %x, 1\n";
      "%r = sub %x, %x\n=>\n%r = and %x, 0\n";
    ]

(* The prover must never "prove" a transformation the corpus knows to be
   wrong — soundness against ground truth. *)
let test_static_never_proves_invalid () =
  List.iter
    (fun (e : Alive_suite.Entry.t) ->
      if e.expected = Alive_suite.Entry.Expect_invalid then
        match Refine.static_report ?widths:e.widths (Alive_suite.Entry.parse e) with
        | Ok s ->
            check_bool
              (Printf.sprintf "%s must not be statically proved" e.name)
              false s.Refine.static_complete
        | Error _ -> ())
    Alive_suite.Registry.all

(* Golden coverage: the static tier must fully discharge a healthy slice
   of the corpus (the ISSUE acceptance bar is 25 of 218). *)
let test_static_coverage () =
  let complete =
    List.fold_left
      (fun acc (e : Alive_suite.Entry.t) ->
        match Refine.static_report ?widths:e.widths (Alive_suite.Entry.parse e) with
        | Ok s when s.Refine.static_complete -> acc + 1
        | _ -> acc)
      0 Alive_suite.Registry.all
  in
  check_bool
    (Printf.sprintf "static tier proves %d corpus entries (need >= 25)"
       complete)
    true (complete >= 25)

(* Tier 0 against the solver on a corpus sample, query by query: every
   query the static tier proves is re-solved by SAT under a conflict
   budget, and no re-solve may find a model. ([alive corpus
   static-report] runs the same check over the whole corpus.) *)
let test_static_parity_sample () =
  let entries =
    List.filteri (fun i _ -> i mod 12 = 0) Alive_suite.Registry.all
  in
  let confirmed =
    List.fold_left
      (fun acc (e : Alive_suite.Entry.t) ->
        match
          Refine.static_check ?widths:e.widths (Alive_suite.Entry.parse e)
        with
        | Ok (_, rc) ->
            Alcotest.(check (list string))
              (e.name ^ ": statically proved queries the solver refutes")
              [] rc.Refine.recheck_refuted;
            acc + rc.recheck_confirmed
        | Error _ -> acc)
      0 entries
  in
  check_bool "the sample has statically proved queries" true (confirmed > 0)

(* Tier 0's exact footprint over the whole corpus at the declared widths:
   the walk behind [static_report] must neither lose nor duplicate a
   typing or a query. A deliberate change to the VC encoding or the prover
   moves these figures and must update them. *)
let test_static_footprint () =
  let add (c, t, q, d) (e : Alive_suite.Entry.t) =
    match Refine.static_report ?widths:e.widths (Alive_suite.Entry.parse e) with
    | Ok s ->
        ( (if s.Refine.static_complete then c + 1 else c),
          t + s.static_typings,
          q + s.static_queries,
          d + s.static_discharged )
    | Error m -> Alcotest.failf "%s: %s" e.name m
  in
  let complete, typings, queries, discharged =
    List.fold_left add (0, 0, 0, 0) Alive_suite.Registry.all
  in
  check_int "entries" 218 (List.length Alive_suite.Registry.all);
  check_int "complete entries" 67 complete;
  check_int "typings" 1769 typings;
  check_int "queries" 5439 queries;
  check_int "discharged queries" 4102 discharged

(* Tier 0's verdict on every corpus query, pinned: one line per query in
   scan order, its store digest and whether tier 0 proved it. Stopping
   propagation at the fixpoint must not move one; a deliberate change to
   the prover or to the VC encoding moves the md5 and must update it. *)
let tier0_lines ~widths entries =
  List.concat_map
    (fun (e : Alive_suite.Entry.t) ->
      match
        Refine.probe_queries ?widths:(widths e) (Alive_suite.Entry.parse e)
      with
      | Error m -> Alcotest.failf "%s: %s" e.name m
      | Ok typings ->
          List.concat_map
            (List.map (fun (p : Refine.query_probe) ->
                 Printf.sprintf "%s %b" p.probe_digest
                   (p.probe_tier = Refine.Static)))
            typings)
    entries

let check_tier0_lines lines ~queries ~proved ~md5 =
  let static =
    List.filter (fun l -> String.ends_with ~suffix:" true" l) lines
  in
  check_int "queries" queries (List.length lines);
  check_int "statically proved" proved (List.length static);
  Alcotest.(check string)
    "md5 of (digest, proved) lines" md5
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_tier0_pinned_declared () =
  check_tier0_lines
    (tier0_lines
       ~widths:(fun (e : Alive_suite.Entry.t) -> e.widths)
       Alive_suite.Registry.all)
    ~queries:5439 ~proved:4102 ~md5:"ebf5b9da4968a889079da9f51e4924a9"

let test_tier0_pinned_wide () =
  check_tier0_lines
    (tier0_lines
       ~widths:(fun _ -> Some [ 16; 32 ])
       (List.filter
          (fun (e : Alive_suite.Entry.t) -> e.widths = None)
          Alive_suite.Registry.all))
    ~queries:1210 ~proved:938 ~md5:"2e9e637ad07a24921a1cf9a528889432"

(* A formula tier 0 proves only in its second propagation round, shaped
   like the definedness query of MulDivRem:udiv-of-shl-nuw at i4:
   refuting it asserts the premises, and the conclusion's negation is a
   disjunction whose other branch the premise [s <u 8] closes. Unit
   propagation asserts [y = 0] at the end of round 1, and only round 2
   sees [y << s = 0] contradict the premise. *)
let test_prover_second_round () =
  let y = T.var "y" (T.Bv 8) and s = T.var "s" (T.Bv 8) in
  let in_range = T.ult s (T.const_int ~width:8 8) in
  check_bool "(y << s) != 0 and s <u 8 => y != 0 and s <u 8" true
    (Prover.prove_valid
       (T.implies
          (T.and_ [ T.not_ (T.eq (T.shl y s) (T.zero 8)); in_range ])
          (T.and_ [ T.not_ (T.eq y (T.zero 8)); in_range ])))

let suite =
  ( "absint",
    [
      Alcotest.test_case "binop transfers sound (randomized)" `Quick
        test_binop_sound;
      Alcotest.test_case "unary transfers sound (randomized)" `Quick
        test_unops_sound;
      Alcotest.test_case "comparisons sound (randomized)" `Quick
        test_comparisons_sound;
      Alcotest.test_case "overflow predicates sound" `Quick
        test_overflow_predicates_sound;
      Alcotest.test_case "power-of-two predicate sound" `Quick
        test_pow2_predicate_sound;
      Alcotest.test_case "product transfers sound on exhaustive i2" `Quick
        test_exhaustive_i2;
      Alcotest.test_case "transfer_binop vs Interp exhaustive i1-i5" `Slow
        test_transfer_vs_interp;
      Alcotest.test_case "tri_will_not_overflow exact on singletons" `Quick
        test_will_not_overflow_singletons;
      Alcotest.test_case "demanded-bits masks" `Quick test_demand_masks;
      Alcotest.test_case "non-demanded bits cannot change outcomes" `Quick
        test_demand_property;
      Alcotest.test_case "normalizer decides linear identities" `Quick
        test_normalizer;
      Alcotest.test_case "prover unit formulas" `Quick test_prover_units;
      Alcotest.test_case "static_report discharges easy transforms" `Quick
        test_static_report_easy;
      Alcotest.test_case "static tier never proves expected-invalid" `Quick
        test_static_never_proves_invalid;
      Alcotest.test_case "static tier proves >= 25 corpus entries" `Quick
        test_static_coverage;
      Alcotest.test_case "static on/off verdict parity (sample)" `Quick
        test_static_parity_sample;
      Alcotest.test_case "static tier's exact corpus footprint" `Quick
        test_static_footprint;
      Alcotest.test_case "tier 0's verdicts at the declared widths" `Quick
        test_tier0_pinned_declared;
      Alcotest.test_case "tier 0's verdicts at i16 and i32" `Quick
        test_tier0_pinned_wide;
      Alcotest.test_case "tier 0 proves in its second round" `Quick
        test_prover_second_round;
    ] )
