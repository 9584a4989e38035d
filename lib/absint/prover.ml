(* The tier-0 static prover: a decision-procedure-free validity check on
   the exact [Term.t] verification conditions that would otherwise be
   bit-blasted.

   [prove_valid formula] attempts to show [formula] holds in *every*
   model (∀-validity, which implies the EF-validity the refinement check
   needs, so the existential constant prefix can be ignored). It works by
   refutation: assert [formula = false], decompose through the boolean
   structure into a set of atomic facts, and search for a contradiction
   using

   - complementary / conflicting boolean assignments (hash-consing makes
     this a table lookup),
   - the reduced-product abstract domain ([Domain]): every bitvector
     subterm is evaluated bottom-up, facts refine term values (with a
     bounded backward propagation through [and]/[or]/[xor]/[add]/[sub]/
     [not]/[zext]/[concat]/[ite]), and a comparison whose abstract status
     contradicts its asserted polarity closes the branch,
   - algebraic normalization ([Normal]): an asserted disequality whose
     sides normalize to the same linear sum — after substituting defined
     variables — is a contradiction, as is an equality whose sides differ
     by a nonzero constant,
   - unit propagation over asserted disjunctions (this is what discharges
     the one-sided [%analysis.*] predicate encoding: the guard variable
     is asserted by ψ, so the guarded fact propagates), and
   - a shallow case split over small residual disjunctions.

   Propagation runs in rounds over the facts, to a fixpoint: a
   generation counter moves on every change a round can make, and a
   round that ends at the generation it began at ends the propagation,
   since every further round would repeat it. At most [max_rounds] run.

   Everything is sound for proving only: [true] means genuinely valid;
   [false] means "not proved here, go ask the SAT solver". A step budget
   bounds the worst case far below the cost of one bit-blasted query. *)

module T = Alive_smt.Term

exception Contradiction
exception Budget

type fact = T.t * bool

type state = {
  bools : (int, bool) Hashtbl.t;
  env : (int, Domain.t) Hashtbl.t;
  settled : (int, int) Hashtbl.t;
      (* term id -> a generation at which evaluating it changed nothing *)
  mutable gen : int;
      (* moves on every change a round can make: an env entry created or
         changed, a boolean fact, a substitution, a disjunction losing a
         branch or leaving [disjs] *)
  mutable eqs : (T.t * T.t) list;
  mutable diseqs : (T.t * T.t) list;
  mutable cmps : ([ `Ult | `Slt ] * T.t * T.t * bool) list;
  mutable disjs : (fact * fact list) list;
  mutable substs : (string * T.t) list;
  mutable steps : int;
}

let max_steps = 50_000
let max_rounds = 6
let backward_depth = 8
let split_depth = 2
let split_width = 4

let new_state () =
  {
    bools = Hashtbl.create 64;
    env = Hashtbl.create 64;
    settled = Hashtbl.create 64;
    gen = 0;
    eqs = [];
    diseqs = [];
    cmps = [];
    disjs = [];
    substs = [];
    steps = 0;
  }

let bump st =
  st.steps <- st.steps + 1;
  if st.steps > max_steps then raise Budget

let changed st = st.gen <- st.gen + 1

let bv_width t = match T.sort t with T.Bv w -> w | T.Bool -> 0

let representable t =
  let w = bv_width t in
  w >= 1 && w <= Bitvec.max_width

let ir_of_bvop : T.bvop -> Ir.binop = function
  | T.Add -> Ir.Add
  | T.Sub -> Ir.Sub
  | T.Mul -> Ir.Mul
  | T.Udiv -> Ir.Udiv
  | T.Sdiv -> Ir.Sdiv
  | T.Urem -> Ir.Urem
  | T.Srem -> Ir.Srem
  | T.Shl -> Ir.Shl
  | T.Lshr -> Ir.Lshr
  | T.Ashr -> Ir.Ashr
  | T.Band -> Ir.And
  | T.Bor -> Ir.Or
  | T.Bxor -> Ir.Xor

(* ---- Forward abstract evaluation ----

   A term's value in [st.env] is the meet of everything learned about it.
   [eval] re-derives it from the subterms' values and meets it in, except
   when the term's last evaluation ran wholly at the current generation:
   that evaluation changed nothing, and every input is still as it was,
   so a second one would return the same value and change nothing either,
   whether or not [Domain.meet] is idempotent ([Domain.reduce] stops after
   a few iterations, so it need not be). *)

let update st t d =
  let cur = Hashtbl.find_opt st.env t.T.id in
  let base = match cur with Some c -> c | None -> Domain.top d.Domain.width in
  match Domain.meet base d with
  | None -> raise Contradiction
  | Some m ->
      (match cur with
      | Some c when c = m -> ()
      | _ ->
          Hashtbl.replace st.env t.T.id m;
          changed st);
      m

let rec eval st t : Domain.t option =
  if not (representable t) then None
  else
    match Hashtbl.find_opt st.settled t.T.id with
    | Some g when g = st.gen -> Hashtbl.find_opt st.env t.T.id
    | _ ->
        bump st;
        let gen = st.gen in
        let d = update st t (forward st t) in
        if st.gen = gen then Hashtbl.replace st.settled t.T.id gen;
        Some d

(* The value of [t] from its subterms' values. *)
and forward st t =
  let w = bv_width t in
  let sub x = match eval st x with Some d -> d | None -> Domain.top (bv_width x) in
  match t.T.node with
  | T.BvConst c -> Domain.singleton c
  | T.Bnot a -> Domain.bnot (sub a)
  | T.Bbin (op, a, b) ->
      if representable a && representable b then
        Domain.binop (ir_of_bvop op) w (sub a) (sub b)
      else Domain.top w
  | T.Extract (hi, lo, a) ->
      if representable a then Domain.extract ~hi ~lo (sub a)
      else Domain.top w
  | T.Concat (a, b) ->
      if representable a && representable b then
        Domain.concat (sub a) (sub b)
      else Domain.top w
  | T.Zext (_, a) ->
      if representable a then Domain.zext (sub a) w else Domain.top w
  | T.Sext (_, a) ->
      if representable a then Domain.sext (sub a) w else Domain.top w
  | T.Ite (c, x, y) -> (
      match tri_of st c with
      | Domain.True -> sub x
      | Domain.False -> sub y
      | Domain.Unknown -> Domain.join (sub x) (sub y))
  | _ -> Domain.top w

(* Three-valued truth of a boolean term under the current facts. *)
and tri_of st t : Domain.tribool =
  bump st;
  match Hashtbl.find_opt st.bools t.T.id with
  | Some b -> Domain.tri_of_bool b
  | None -> (
      match t.T.node with
      | T.True -> Domain.True
      | T.False -> Domain.False
      | T.Not u -> Domain.tri_not (tri_of st u)
      | T.And l ->
          List.fold_left (fun acc u -> Domain.tri_and acc (tri_of st u)) Domain.True l
      | T.Or l ->
          List.fold_left (fun acc u -> Domain.tri_or acc (tri_of st u)) Domain.False l
      | T.Ite (c, x, y) -> (
          match tri_of st c with
          | Domain.True -> tri_of st x
          | Domain.False -> tri_of st y
          | Domain.Unknown ->
              let tx = tri_of st x and ty = tri_of st y in
              if tx = ty then tx else Domain.Unknown)
      | T.Eq (a, b) when T.sort a <> T.Bool -> (
          match (eval st a, eval st b) with
          | Some da, Some db -> (
              match Domain.tri_eq da db with
              | Domain.Unknown -> Normal.decide_eq ~disjoint:(disjoint st) a b
              | r -> r)
          | _ -> Normal.decide_eq a b)
      | T.Eq (a, b) -> (
          match (tri_of st a, tri_of st b) with
          | Domain.Unknown, _ | _, Domain.Unknown -> Domain.Unknown
          | ta, tb -> Domain.tri_of_bool (ta = tb))
      | T.Ult (a, b) -> (
          match (eval st a, eval st b) with
          | Some da, Some db -> Domain.tri_ult da db
          | _ -> Domain.Unknown)
      | T.Slt (a, b) -> (
          match (eval st a, eval st b) with
          | Some da, Some db -> Domain.tri_slt da db
          | _ -> Domain.Unknown)
      | _ -> Domain.Unknown)

(* Sound disjointness oracle for the normalizer: no bit can be set in
   both terms. *)
and disjoint st a b =
  match (eval st a, eval st b) with
  | Some da, Some db ->
      Bitvec.is_zero
        (Bitvec.logand
           (Bitvec.lognot da.Domain.kb.Analysis.zeros)
           (Bitvec.lognot db.Domain.kb.Analysis.zeros))
  | _ -> false

(* ---- Backward refinement: propagate a bound on [t] into subterms ---- *)

let rec backward st depth t d =
  if representable t then begin
    bump st;
    let d = update st t d in
    if depth > 0 then
      let w = bv_width t in
      let kb_of x =
        match eval st x with
        | Some dx -> dx.Domain.kb
        | None -> Analysis.unknown (bv_width x)
      in
      let dom x = match eval st x with Some dx -> dx | None -> Domain.top (bv_width x) in
      let refine_kb x (kb : Analysis.known_bits) =
        if representable x then backward st (depth - 1) x (Domain.of_kb (bv_width x) kb)
      in
      match t.T.node with
      | T.Bnot a -> backward st (depth - 1) a (Domain.bnot d)
      | T.Bbin (T.Add, a, b) ->
          backward st (depth - 1) a (Domain.binop Ir.Sub w d (dom b));
          backward st (depth - 1) b (Domain.binop Ir.Sub w d (dom a))
      | T.Bbin (T.Sub, a, b) ->
          backward st (depth - 1) a (Domain.binop Ir.Add w d (dom b));
          backward st (depth - 1) b (Domain.binop Ir.Sub w (dom a) d)
      | T.Bbin (T.Band, a, b) ->
          let dz = d.Domain.kb.Analysis.zeros and d1 = d.Domain.kb.Analysis.ones in
          refine_kb a
            { Analysis.zeros = Bitvec.logand dz (kb_of b).Analysis.ones; ones = d1 };
          refine_kb b
            { Analysis.zeros = Bitvec.logand dz (kb_of a).Analysis.ones; ones = d1 }
      | T.Bbin (T.Bor, a, b) ->
          let dz = d.Domain.kb.Analysis.zeros and d1 = d.Domain.kb.Analysis.ones in
          refine_kb a
            { Analysis.zeros = dz; ones = Bitvec.logand d1 (kb_of b).Analysis.zeros };
          refine_kb b
            { Analysis.zeros = dz; ones = Bitvec.logand d1 (kb_of a).Analysis.zeros }
      | T.Bbin (T.Bxor, a, b) ->
          let dz = d.Domain.kb.Analysis.zeros and d1 = d.Domain.kb.Analysis.ones in
          let refine_xor x (other : Analysis.known_bits) =
            refine_kb x
              {
                Analysis.zeros =
                  Bitvec.logor
                    (Bitvec.logand dz other.Analysis.zeros)
                    (Bitvec.logand d1 other.Analysis.ones);
                ones =
                  Bitvec.logor
                    (Bitvec.logand d1 other.Analysis.zeros)
                    (Bitvec.logand dz other.Analysis.ones);
              }
          in
          refine_xor a (kb_of b);
          refine_xor b (kb_of a)
      | T.Zext (_, a) | T.Sext (_, a) ->
          if representable a then
            backward st (depth - 1) a (Domain.trunc d (bv_width a))
      | T.Concat (a, b) ->
          let wb = bv_width b in
          if representable a then
            backward st (depth - 1) a (Domain.extract ~hi:(w - 1) ~lo:wb d);
          if representable b then
            backward st (depth - 1) b (Domain.extract ~hi:(wb - 1) ~lo:0 d)
      | T.Ite (c, x, y) -> (
          match tri_of st c with
          | Domain.True -> backward st (depth - 1) x d
          | Domain.False -> backward st (depth - 1) y d
          | Domain.Unknown -> ())
      | _ -> ()
  end

(* ---- Fact assertion ---- *)

let rec assert_fact st ((t, v) : fact) =
  bump st;
  match Hashtbl.find_opt st.bools t.T.id with
  | Some b -> if b <> v then raise Contradiction
  | None -> (
      Hashtbl.replace st.bools t.T.id v;
      changed st;
      match (t.T.node, v) with
      | T.True, false | T.False, true -> raise Contradiction
      | T.True, true | T.False, false -> ()
      | T.Not u, _ -> assert_fact st (u, not v)
      | T.And l, true -> List.iter (fun u -> assert_fact st (u, true)) l
      | T.Or l, false -> List.iter (fun u -> assert_fact st (u, false)) l
      | T.And l, false ->
          st.disjs <- ((t, v), List.map (fun u -> (u, false)) l) :: st.disjs
      | T.Or l, true ->
          st.disjs <- ((t, v), List.map (fun u -> (u, true)) l) :: st.disjs
      | T.Eq (a, b), true when T.sort a <> T.Bool -> st.eqs <- (a, b) :: st.eqs
      | T.Eq (a, b), false when T.sort a <> T.Bool ->
          st.diseqs <- (a, b) :: st.diseqs
      | T.Ult (a, b), _ -> st.cmps <- (`Ult, a, b, v) :: st.cmps
      | T.Slt (a, b), _ -> st.cmps <- (`Slt, a, b, v) :: st.cmps
      | _ -> ())

(* ---- Per-round propagation ---- *)

let apply_substs st x =
  if st.substs = [] then x
  else
    let x1 = T.subst st.substs x in
    let x2 = T.subst st.substs x1 in
    if T.equal x1 x2 then x1 else T.subst st.substs x2

let collect_substs st =
  List.iter
    (fun (a, b) ->
      let record v rhs =
        if
          (not (List.mem_assoc v st.substs))
          && not (List.exists (fun (n, _) -> n = v) (T.vars rhs))
        then begin
          st.substs <- (v, rhs) :: st.substs;
          changed st
        end
      in
      match (a.T.node, b.T.node) with
      | T.Var (v, _), _ -> record v b
      | _, T.Var (v, _) -> record v a
      | _ -> ())
    st.eqs

let process_eq st (a, b) =
  (match (eval st a, eval st b) with
  | Some da, Some db -> (
      match Domain.meet da db with
      | None -> raise Contradiction
      | Some m ->
          backward st backward_depth a m;
          backward st backward_depth b m)
  | _ -> ());
  let a' = apply_substs st a and b' = apply_substs st b in
  (match Normal.decide_eq ~disjoint:(disjoint st) a' b' with
  | Domain.False -> raise Contradiction
  | _ -> ());
  (* singleton solving: a - b = c + k·x with k = ±1 pins x *)
  if representable a then begin
    let d =
      Normal.sub
        (Normal.normalize ~disjoint:(disjoint st) a')
        (Normal.normalize ~disjoint:(disjoint st) b')
    in
    match d.Normal.terms with
    | [ ([ atom ], k) ] when representable atom ->
        let w = d.Normal.width in
        if Bitvec.equal k (Bitvec.one w) then
          backward st backward_depth atom
            (Domain.singleton (Bitvec.neg d.Normal.const))
        else if Bitvec.is_all_ones k then
          backward st backward_depth atom (Domain.singleton d.Normal.const)
    | _ -> ()
  end

let process_diseq st (a, b) =
  let a' = apply_substs st a and b' = apply_substs st b in
  if T.equal a' b' then raise Contradiction;
  (match Normal.decide_eq ~disjoint:(disjoint st) a' b' with
  | Domain.True -> raise Contradiction
  | _ -> ());
  match (eval st a, eval st b) with
  | Some da, Some db -> (
      match Domain.tri_eq da db with
      | Domain.True -> raise Contradiction
      | _ -> (
          (* x ≠ c at width 1 pins x to the other value *)
          match (Domain.is_singleton db, bv_width a) with
          | Some c, 1 ->
              backward st backward_depth a (Domain.singleton (Bitvec.lognot c))
          | _ -> (
              match (Domain.is_singleton da, bv_width a) with
              | Some c, 1 ->
                  backward st backward_depth b
                    (Domain.singleton (Bitvec.lognot c))
              | _ -> ())))
  | _ -> ()

let process_cmp st (kind, a, b, v) =
  match (eval st a, eval st b) with
  | Some da, Some db -> (
      let w = bv_width a in
      let status =
        match kind with
        | `Ult -> Domain.tri_ult da db
        | `Slt -> Domain.tri_slt da db
      in
      (match (status, v) with
      | Domain.True, false | Domain.False, true -> raise Contradiction
      | _ -> ());
      match (kind, v) with
      | `Ult, true ->
          if Bitvec.is_zero db.Domain.umax then raise Contradiction;
          backward st backward_depth a
            (Domain.range w (Bitvec.zero w)
               (Bitvec.sub db.Domain.umax (Bitvec.one w)));
          if Bitvec.is_all_ones da.Domain.umin then raise Contradiction;
          backward st backward_depth b
            (Domain.range w
               (Bitvec.add da.Domain.umin (Bitvec.one w))
               (Bitvec.all_ones w))
      | `Ult, false ->
          backward st backward_depth a
            (Domain.range w db.Domain.umin (Bitvec.all_ones w));
          backward st backward_depth b
            (Domain.range w (Bitvec.zero w) da.Domain.umax)
      | `Slt, true ->
          if Bitvec.equal db.Domain.smax (Bitvec.min_signed w) then
            raise Contradiction;
          backward st backward_depth a
            (Domain.srange w (Bitvec.min_signed w)
               (Bitvec.sub db.Domain.smax (Bitvec.one w)));
          if Bitvec.equal da.Domain.smin (Bitvec.max_signed w) then
            raise Contradiction;
          backward st backward_depth b
            (Domain.srange w
               (Bitvec.add da.Domain.smin (Bitvec.one w))
               (Bitvec.max_signed w))
      | `Slt, false ->
          backward st backward_depth a
            (Domain.srange w db.Domain.smin (Bitvec.max_signed w));
          backward st backward_depth b
            (Domain.srange w (Bitvec.min_signed w) da.Domain.smax))
  | _ -> ()

let fact_status st ((t, v) : fact) =
  let s = tri_of st t in
  if v then s else Domain.tri_not s

let unit_propagate st =
  let remaining = ref [] in
  List.iter
    (fun (orig, branches) ->
      let statuses = List.map (fun br -> (br, fact_status st br)) branches in
      if List.exists (fun (_, s) -> s = Domain.True) statuses then changed st
      else
        let open_branches =
          List.filter_map
            (fun (br, s) -> if s = Domain.False then None else Some br)
            statuses
        in
        match open_branches with
        | [] -> raise Contradiction
        | [ br ] ->
            changed st;
            assert_fact st br
        | _ ->
            if List.compare_lengths open_branches branches < 0 then changed st;
            remaining := (orig, open_branches) :: !remaining)
    st.disjs;
  st.disjs <- List.rev !remaining

let fact_equal (t1, v1) (t2, v2) = T.equal t1 t2 && v1 = v2

(* ---- Refutation driver ---- *)

(* One round reads the facts and may add to them; a round that changes
   nothing has reached the fixpoint, and the next would repeat it. *)
let rec propagate st round =
  let gen = st.gen in
  collect_substs st;
  List.iter (process_eq st) st.eqs;
  List.iter (process_diseq st) st.diseqs;
  List.iter (process_cmp st) st.cmps;
  unit_propagate st;
  if round < max_rounds && st.gen <> gen then propagate st (round + 1)

let rec refute depth (facts : fact list) : bool =
  let st = new_state () in
  match
    List.iter (assert_fact st) facts;
    propagate st 1
  with
  | () ->
      (* no direct contradiction: case-split on a small disjunction *)
      if depth = 0 then false
      else begin
        let candidates =
          List.filter (fun (_, brs) -> List.length brs <= split_width) st.disjs
        in
        match candidates with
        | [] -> false
        | (orig, branches) :: _ ->
            let base = List.filter (fun f -> not (fact_equal f orig)) facts in
            List.for_all (fun br -> refute (depth - 1) (br :: base)) branches
      end
  | exception Contradiction -> true

let prove_valid ?exists:_ (formula : T.t) : bool =
  (* ∀-validity implies validity under the existential constant prefix,
     so [exists] is ignored. *)
  match refute split_depth [ (formula, false) ] with
  | r -> r
  | exception Budget -> false
  | exception Contradiction -> true
