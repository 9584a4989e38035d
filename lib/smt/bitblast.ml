(* CNF encoding. Bitvectors become arrays of literals, least significant
   bit first.

   The word-level circuits and the walk over [Lower]'s core fragment are
   written once, in [Circuit], over a gate set, and instantiated twice:

   - [Tseitin], the direct gates: each gate is a fresh SAT variable with
     the clauses for both directions of its definition, so any model of
     the CNF restricted to the original variables is a model of the
     asserted formulas. Constant bits reuse a single always-true variable,
     so the SAT layer's level-0 simplification absorbs them for free.
   - [Aig_gates]: a hash-consed AND-inverter graph with two-level
     rewriting, whose reduced cones go to the same SAT solver as Tseitin
     clauses, recognizing MUX/XOR shapes (see aig.ml).

   The AIG is the default; [--no-aig] selects the direct gates, which stay
   as the reference the AIG path is checked against. *)

module S = Alive_sat.Solver

let simplify_flag = Atomic.make true
let set_simplify b = Atomic.set simplify_flag b
let simplify () = Atomic.get simplify_flag

(* A gate set. [conj] and [disj] take the operand builder, so the gate
   set decides whether each operand is built before its gate or as the
   gate folds; the AIG's node ids depend on that order. *)
module type GATES = sig
  type t
  type lit

  val tru : t -> lit
  val fls : t -> lit
  val neg : lit -> lit
  val input : t -> lit
  val and2 : t -> lit -> lit -> lit
  val or2 : t -> lit -> lit -> lit
  val xor2 : t -> lit -> lit -> lit
  val iff2 : t -> lit -> lit -> lit
  val ite : t -> lit -> lit -> lit -> lit
  val maj3 : t -> lit -> lit -> lit -> lit
  val conj : t -> ('a -> lit) -> 'a list -> lit
  val disj : t -> ('a -> lit) -> 'a list -> lit
end

(* The CNF target: a SAT solver and its always-true literal. *)
type cnf = { sat : S.t; true_lit : S.lit }

(* The direct gates. Each returns an output literal; constant inputs
   short-circuit. *)
module Tseitin = struct
  type t = cnf
  type lit = S.lit

  let tru t = t.true_lit
  let fls t = S.neg t.true_lit
  let neg = S.neg
  let input t = S.mk_lit (S.new_var t.sat) true
  let is_true t l = l = t.true_lit
  let is_false t l = l = fls t
  let is_const t l = is_true t l || is_false t l

  let and2 t a b =
    if is_false t a || is_false t b then fls t
    else if is_true t a then b
    else if is_true t b then a
    else if a = b then a
    else if a = S.neg b then fls t
    else begin
      let o = input t in
      S.add_clause t.sat [ S.neg o; a ];
      S.add_clause t.sat [ S.neg o; b ];
      S.add_clause t.sat [ o; S.neg a; S.neg b ];
      o
    end

  let or2 t a b = S.neg (and2 t (S.neg a) (S.neg b))

  (* Every operand first, then one n-ary gate. *)
  let conj t f xs =
    match List.map f xs with
    | [] -> t.true_lit
    | [ l ] -> l
    | ls ->
        if List.exists (is_false t) ls then fls t
        else begin
          let ls = List.filter (fun l -> not (is_true t l)) ls in
          let ls = List.sort_uniq Stdlib.compare ls in
          match ls with
          | [] -> t.true_lit
          | [ l ] -> l
          | _ ->
              if List.exists (fun l -> List.mem (S.neg l) ls) ls then fls t
              else begin
                let o = input t in
                List.iter (fun l -> S.add_clause t.sat [ S.neg o; l ]) ls;
                S.add_clause t.sat (o :: List.map S.neg ls);
                o
              end
        end

  let disj t f xs = S.neg (conj t (fun x -> S.neg (f x)) xs)

  let xor2 t a b =
    if is_const t a then if is_true t a then S.neg b else b
    else if is_const t b then if is_true t b then S.neg a else a
    else if a = b then fls t
    else if a = S.neg b then t.true_lit
    else begin
      let o = input t in
      S.add_clause t.sat [ S.neg o; a; b ];
      S.add_clause t.sat [ S.neg o; S.neg a; S.neg b ];
      S.add_clause t.sat [ o; S.neg a; b ];
      S.add_clause t.sat [ o; a; S.neg b ];
      o
    end

  let iff2 t a b = S.neg (xor2 t a b)

  let ite t c a b =
    if is_true t c then a
    else if is_false t c then b
    else if a = b then a
    else if is_true t a && is_false t b then c
    else if is_false t a && is_true t b then S.neg c
    else begin
      let o = input t in
      S.add_clause t.sat [ S.neg o; S.neg c; a ];
      S.add_clause t.sat [ S.neg o; c; b ];
      (* Redundant but propagation-friendly. *)
      S.add_clause t.sat [ S.neg o; a; b ];
      S.add_clause t.sat [ o; S.neg c; S.neg a ];
      S.add_clause t.sat [ o; c; S.neg b ];
      S.add_clause t.sat [ o; S.neg a; S.neg b ];
      o
    end

  let maj3 t a b c =
    if is_true t a then or2 t b c
    else if is_false t a then and2 t b c
    else if is_true t b then or2 t a c
    else if is_false t b then and2 t a c
    else if is_true t c then or2 t a b
    else if is_false t c then and2 t a b
    else begin
      let o = input t in
      S.add_clause t.sat [ S.neg o; a; b ];
      S.add_clause t.sat [ S.neg o; a; c ];
      S.add_clause t.sat [ S.neg o; b; c ];
      S.add_clause t.sat [ o; S.neg a; S.neg b ];
      S.add_clause t.sat [ o; S.neg a; S.neg c ];
      S.add_clause t.sat [ o; S.neg b; S.neg c ];
      o
    end
end

(* The AIG's gates; rewriting and structural hashing happen inside
   [Aig.and_]. [conj] and [disj] fold as they build each operand. *)
module Aig_gates = struct
  type t = Aig.t
  type lit = Aig.lit

  let tru _ = Aig.true_
  let fls _ = Aig.false_
  let neg = Aig.not_
  let input = Aig.input
  let and2 = Aig.and_
  let or2 = Aig.or_
  let xor2 = Aig.xor_
  let iff2 = Aig.iff_
  let ite = Aig.ite_
  let maj3 = Aig.maj3
  let conj g f xs =
    List.fold_left (fun acc x -> Aig.and_ g acc (f x)) Aig.true_ xs

  let disj g f xs =
    List.fold_left (fun acc x -> Aig.or_ g acc (f x)) Aig.false_ xs
end

open Term

(* The circuits over one gate set, with memo tables keyed by term id so
   shared subterms are encoded once. *)
module Circuit (G : GATES) = struct
  type t = {
    gates : G.t;
    bool_memo : (int, G.lit) Hashtbl.t; (* term id -> literal *)
    bv_memo : (int, G.lit array) Hashtbl.t; (* term id -> bit literals *)
    var_bits : (string, G.lit array) Hashtbl.t;
    var_bools : (string, G.lit) Hashtbl.t;
  }

  let create gates =
    {
      gates;
      bool_memo = Hashtbl.create 256;
      bv_memo = Hashtbl.create 256;
      var_bits = Hashtbl.create 16;
      var_bools = Hashtbl.create 16;
    }

  let xor3 g a b c = G.xor2 g (G.xor2 g a b) c

  (* Ripple-carry addition with carry-in; returns the sum bits (width of a). *)
  let adder g a b cin =
    let n = Array.length a in
    let out = Array.make n (G.fls g) in
    let carry = ref cin in
    for i = 0 to n - 1 do
      out.(i) <- xor3 g a.(i) b.(i) !carry;
      if i < n - 1 then carry := G.maj3 g a.(i) b.(i) !carry
    done;
    out

  (* Unsigned less-than: scan from LSB to MSB keeping a running verdict. *)
  let ult_bits g a b =
    let n = Array.length a in
    let lt = ref (G.fls g) in
    for i = 0 to n - 1 do
      lt := G.ite g (G.iff2 g a.(i) b.(i)) !lt (G.and2 g (G.neg a.(i)) b.(i))
    done;
    !lt

  let eq_bits g a b =
    G.conj g Fun.id (Array.to_list (Array.map2 (G.iff2 g) a b))

  (* Shift-and-add multiplier. *)
  let mul_bits g a b =
    let n = Array.length a in
    let acc = ref (Array.map (fun ai -> G.and2 g ai b.(0)) a) in
    for i = 1 to n - 1 do
      let addend =
        Array.init n (fun j -> if j < i then G.fls g else G.and2 g a.(j - i) b.(i))
      in
      acc := adder g !acc addend (G.fls g)
    done;
    !acc

  let bits_of_const g c =
    Array.init (Bitvec.width c) (fun i ->
        if Bitvec.bit c i then G.tru g else G.fls g)

  (* Shift by a constant amount with a configurable fill bit. *)
  let shift_const_bits a k ~left ~fill =
    let n = Array.length a in
    Array.init n (fun i ->
        let src = if left then i - k else i + k in
        if src < 0 || src >= n then fill else a.(src))

  let rec blast_bool st (term : Term.t) : G.lit =
    match Hashtbl.find_opt st.bool_memo term.id with
    | Some l -> l
    | None ->
        let g = st.gates in
        let l =
          match term.node with
          | True -> G.tru g
          | False -> G.fls g
          | Var (name, Bool) -> (
              match Hashtbl.find_opt st.var_bools name with
              | Some l -> l
              | None ->
                  let l = G.input g in
                  Hashtbl.add st.var_bools name l;
                  l)
          | Var (_, Bv _) -> assert false
          | Not a -> G.neg (blast_bool st a)
          | And l -> G.conj g (blast_bool st) l
          | Or l -> G.disj g (blast_bool st) l
          | Eq (a, b) when equal_sort (Term.sort a) Bool ->
              G.iff2 g (blast_bool st a) (blast_bool st b)
          | Eq (a, b) -> eq_bits g (blast_bv st a) (blast_bv st b)
          | Ult (a, b) -> ult_bits g (blast_bv st a) (blast_bv st b)
          | Slt (a, b) ->
              (* Flip sign bits, then compare unsigned: literal negation
                 is free. *)
              let flip_sign bits =
                let bits = Array.copy bits in
                let n = Array.length bits in
                bits.(n - 1) <- G.neg bits.(n - 1);
                bits
              in
              ult_bits g (flip_sign (blast_bv st a)) (flip_sign (blast_bv st b))
          | Ite _ ->
              (* Boolean ite is normalized away by the Term smart constructor. *)
              assert false
          | BvConst _ | Bnot _ | Bbin _ | Extract _ | Concat _ | Zext _
          | Sext _ ->
              assert false
        in
        Hashtbl.replace st.bool_memo term.id l;
        l

  and blast_bv st (term : Term.t) : G.lit array =
    match Hashtbl.find_opt st.bv_memo term.id with
    | Some bits -> bits
    | None ->
        let g = st.gates in
        let bits =
          match term.node with
          | BvConst c -> bits_of_const g c
          | Var (name, Bv n) -> (
              match Hashtbl.find_opt st.var_bits name with
              | Some bits -> bits
              | None ->
                  let bits = Array.init n (fun _ -> G.input g) in
                  Hashtbl.add st.var_bits name bits;
                  bits)
          | Var (_, Bool) -> assert false
          | Bnot a -> Array.map G.neg (blast_bv st a)
          | Ite (c, a, b) ->
              let c = blast_bool st c in
              Array.map2 (G.ite g c) (blast_bv st a) (blast_bv st b)
          | Bbin (op, a, b) -> blast_bvop st op a b
          | Extract (hi, lo, a) ->
              let bits = blast_bv st a in
              Array.sub bits lo (hi - lo + 1)
          | Concat (a, b) ->
              let hi = blast_bv st a and lo = blast_bv st b in
              Array.append lo hi
          | Zext (n, a) ->
              let bits = blast_bv st a in
              Array.append bits (Array.make n (G.fls g))
          | Sext (n, a) ->
              let bits = blast_bv st a in
              let sign = bits.(Array.length bits - 1) in
              Array.append bits (Array.make n sign)
          | True | False | Not _ | And _ | Or _ | Eq _ | Ult _ | Slt _ ->
              assert false
        in
        Hashtbl.add st.bv_memo term.id bits;
        bits

  and blast_bvop st op a b =
    let g = st.gates in
    match op with
    | Add -> adder g (blast_bv st a) (blast_bv st b) (G.fls g)
    | Sub ->
        (* a - b = a + ~b + 1, a single adder with carry-in. *)
        adder g (blast_bv st a) (Array.map G.neg (blast_bv st b)) (G.tru g)
    | Mul -> mul_bits g (blast_bv st a) (blast_bv st b)
    | Band -> Array.map2 (G.and2 g) (blast_bv st a) (blast_bv st b)
    | Bor -> Array.map2 (G.or2 g) (blast_bv st a) (blast_bv st b)
    | Bxor -> Array.map2 (G.xor2 g) (blast_bv st a) (blast_bv st b)
    | Shl | Lshr | Ashr -> (
        match b.node with
        | BvConst c ->
            let bits = blast_bv st a in
            let n = Array.length bits in
            let k =
              if Bitvec.ult c (Bitvec.of_int ~width:(Bitvec.width c) n) then
                Bitvec.to_int c
              else n
            in
            let fill = if op = Ashr then bits.(n - 1) else G.fls g in
            if k >= n then Array.make n fill
            else shift_const_bits bits k ~left:(op = Shl) ~fill
        | _ ->
            (* Variable shifts are removed by Lower. *)
            assert false)
    | Udiv | Sdiv | Urem | Srem ->
        (* Removed by Lower. *)
        assert false

  (* A variable's input literals, one per bit, if any formula mentions it. *)
  let var_lits st name = function
    | Bool -> Option.map (fun l -> [| l |]) (Hashtbl.find_opt st.var_bools name)
    | Bv _ -> Hashtbl.find_opt st.var_bits name
end

module Direct = Circuit (Tseitin)
module Graph = Circuit (Aig_gates)

(* A context's encoder: the direct circuits, or the graph circuits with
   the roots asserted through them, which AIGER export lists. *)
type encoder =
  | Direct of Direct.t
  | Graph of {
      circuit : Graph.t;
      mutable roots : Aig.lit list; (* newest first *)
    }

type t = { cnf : cnf; enc : encoder }

let create () =
  let sat = S.create () in
  let true_lit = S.mk_lit (S.new_var sat) true in
  S.add_clause sat [ true_lit ];
  let cnf = { sat; true_lit } in
  {
    cnf;
    enc =
      (if simplify () then
         Graph { circuit = Graph.create (Aig.create ()); roots = [] }
       else Direct (Direct.create cnf));
  }

module Trace = Alive_trace.Trace

(* [lower] rewrites to the core fragment, [bitblast] runs the encoding;
   both are memoized per context, so re-asserting shared subterms shows up
   as near-zero-duration spans. *)
let lower_traced term = Trace.with_span "lower" (fun () -> Lower.lower term)

let blast_bool_traced t term =
  Trace.with_span "bitblast" (fun () ->
      match t.enc with
      | Direct st -> Direct.blast_bool st term
      | Graph r ->
          (* Emit the root's CNF cone from the reduced graph, and remember
             the root for AIGER export. *)
          let root = Graph.blast_bool r.circuit term in
          r.roots <- root :: r.roots;
          Aig.emit r.circuit.gates ~false_lit:(Tseitin.fls t.cnf)
            ~fresh:(fun () -> Tseitin.input t.cnf)
            ~clause:(S.add_clause t.cnf.sat) root)

let assert_formula t term =
  if not (equal_sort (Term.sort term) Bool) then
    invalid_arg "Bitblast.assert_formula: bitvector-sorted term";
  let l = blast_bool_traced t (lower_traced term) in
  S.add_clause t.cnf.sat [ l ]

let check ?conflict_limit ?deadline t =
  if S.solve ?conflict_limit ?deadline t.cnf.sat then `Sat else `Unsat

let model_value t name sort =
  (* The SAT literal of each bit, [None] where the bit's cone never
     reached the CNF: it is unconstrained, any value satisfies the model,
     and zero is the convention. *)
  let bits =
    match t.enc with
    | Direct st ->
        Option.map (Array.map Option.some) (Direct.var_lits st name sort)
    | Graph r ->
        Option.map
          (Array.map (Aig.sat_lit_opt r.circuit.gates))
          (Graph.var_lits r.circuit name sort)
  in
  let bit = function Some l -> S.value t.cnf.sat l | None -> false in
  match (sort, bits) with
  | Bool, Some bits -> Vbool (bit bits.(0))
  | Bool, None -> Vbool false
  | Bv n, Some bits ->
      let v = ref 0L in
      Array.iteri
        (fun i l -> if bit l then v := Int64.logor !v (Int64.shift_left 1L i))
        bits;
      Vbv (Bitvec.make ~width:n !v)
  | Bv n, None -> Vbv (Bitvec.zero n)

let stats t = S.stats t.cnf.sat

let export t = S.export t.cnf.sat

let aig_stats t =
  match t.enc with
  | Graph r -> Some (Aig.stats r.circuit.gates)
  | Direct _ -> None

let export_aiger t =
  match t.enc with
  | Graph r -> Some (Aig.to_aiger r.circuit.gates ~outputs:(List.rev r.roots))
  | Direct _ -> None
