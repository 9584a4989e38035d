(* Hash-consed AND-inverter graphs.

   A literal is [2·node + complement]; node 0 is the constant false, so
   literal 0 is false and literal 1 is true (AIGER numbering). Inputs and
   AND nodes share one id space. Every [and_] request runs through
   constant propagation, the one-level rules (idempotence, complement,
   absorption of constants) and the two-level Brummayer–Biere rules
   (contradiction, subsumption, idempotence-2, substitution, resolution),
   then through a structural-hashing table, so structurally identical
   subcircuits — the shared ripple-carry and partial-product cones of the
   mul/div/rem lowerings — exist exactly once no matter how many times
   the blaster rebuilds them.

   CNF is emitted from the reduced graph on demand, cone by cone: each
   node's Tseitin clauses (both directions of its definition) once, the
   first time a root's cone reaches it. MUX/XOR shapes —
   AND(¬(c∧d̄), ¬(¬c∧ē)) — are recognized at emission and encoded as a
   single if-then-else gate, skipping the two inner nodes entirely. *)

module S = Alive_sat.Solver

type lit = int

let false_ = 0
let true_ = 1
let not_ l = l lxor 1
let node l = l lsr 1
let compl l = l land 1
let mk_lit n c = (n lsl 1) lor c

(* fan0.(n) = -1 marks an input; node 0 is the constant. *)
type t = {
  mutable fan0 : int array;
  mutable fan1 : int array;
  mutable nnodes : int;
  strash : (int * int, int) Hashtbl.t;
  mutable inputs : int list; (* input node ids, reverse creation order *)
  mutable n_inputs : int;
  mutable requests : int; (* raw and_ requests before rewriting *)
  mutable ands : int; (* distinct AND nodes allocated *)
  (* CNF emission state *)
  sat_of : (int, S.lit) Hashtbl.t;
  emitted : (int, unit) Hashtbl.t; (* nodes whose clauses are out *)
}

let create () =
  let fan0 = Array.make 64 (-2) and fan1 = Array.make 64 (-2) in
  {
    fan0;
    fan1;
    nnodes = 1;
    strash = Hashtbl.create 256;
    inputs = [];
    n_inputs = 0;
    requests = 0;
    ands = 0;
    sat_of = Hashtbl.create 256;
    emitted = Hashtbl.create 256;
  }

let grow g =
  if g.nnodes >= Array.length g.fan0 then begin
    let n = 2 * Array.length g.fan0 in
    let f0 = Array.make n (-2) and f1 = Array.make n (-2) in
    Array.blit g.fan0 0 f0 0 g.nnodes;
    Array.blit g.fan1 0 f1 0 g.nnodes;
    g.fan0 <- f0;
    g.fan1 <- f1
  end

let input g =
  grow g;
  let n = g.nnodes in
  g.nnodes <- n + 1;
  g.fan0.(n) <- -1;
  g.fan1.(n) <- -1;
  g.inputs <- n :: g.inputs;
  g.n_inputs <- g.n_inputs + 1;
  mk_lit n 0

let is_and g n = n > 0 && n < g.nnodes && g.fan0.(n) >= 0

(* Allocate (or reuse) the AND node for ordered fanins (a, b). *)
let node_of g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  match Hashtbl.find_opt g.strash (a, b) with
  | Some n -> mk_lit n 0
  | None ->
      grow g;
      let n = g.nnodes in
      g.nnodes <- n + 1;
      g.fan0.(n) <- a;
      g.fan1.(n) <- b;
      g.ands <- g.ands + 1;
      Hashtbl.add g.strash (a, b) n;
      mk_lit n 0

(* Two-level rewriting. [depth] bounds the substitution recursion; the
   rules themselves are plain Boolean identities over the fanins. *)
let rec and_rw g depth a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_ then false_
  else if a = true_ then b
  else if a = b then a
  else if a = not_ b then false_
  else begin
    let na = node a and nb = node b in
    let a_and = is_and g na and b_and = is_and g nb in
    let a0 = if a_and then g.fan0.(na) else 0
    and a1 = if a_and then g.fan1.(na) else 0
    and b0 = if b_and then g.fan0.(nb) else 0
    and b1 = if b_and then g.fan1.(nb) else 0 in
    let rewritten =
      (* one side is an uncomplemented AND: (a0∧a1) ∧ b *)
      if a_and && compl a = 0 && (b = not_ a0 || b = not_ a1) then Some false_
      else if a_and && compl a = 0 && (b = a0 || b = a1) then Some a
      else if b_and && compl b = 0 && (a = not_ b0 || a = not_ b1) then
        Some false_
      else if b_and && compl b = 0 && (a = b0 || a = b1) then Some b
        (* one side is a complemented AND: ¬(a0∧a1) ∧ b *)
      else if a_and && compl a = 1 && (b = not_ a0 || b = not_ a1) then Some b
      else if b_and && compl b = 1 && (a = not_ b0 || a = not_ b1) then Some a
      else if a_and && compl a = 1 && depth > 0 && b = a0 then
        (* substitution: ¬(b∧a1) ∧ b = ¬a1 ∧ b *)
        Some (and_rw g (depth - 1) (not_ a1) b)
      else if a_and && compl a = 1 && depth > 0 && b = a1 then
        Some (and_rw g (depth - 1) (not_ a0) b)
      else if b_and && compl b = 1 && depth > 0 && a = b0 then
        Some (and_rw g (depth - 1) (not_ b1) a)
      else if b_and && compl b = 1 && depth > 0 && a = b1 then
        Some (and_rw g (depth - 1) (not_ b0) a)
        (* both uncomplemented ANDs: contradiction across fanins *)
      else if
        a_and && b_and
        && compl a = 0
        && compl b = 0
        && (a0 = not_ b0 || a0 = not_ b1 || a1 = not_ b0 || a1 = not_ b1)
      then Some false_
        (* resolution: ¬(x∧s) ∧ ¬(¬x∧s) = ¬s *)
      else if a_and && b_and && compl a = 1 && compl b = 1 then
        if a0 = not_ b0 && a1 = b1 then Some (not_ a1)
        else if a0 = not_ b1 && a1 = b0 then Some (not_ a1)
        else if a1 = not_ b0 && a0 = b1 then Some (not_ a0)
        else if a1 = not_ b1 && a0 = b0 then Some (not_ a0)
        else None
      else None
    in
    match rewritten with Some l -> l | None -> node_of g a b
  end

let and_ g a b =
  g.requests <- g.requests + 1;
  and_rw g 4 a b

let or_ g a b = not_ (and_ g (not_ a) (not_ b))
let xor_ g a b = not_ (and_ g (not_ (and_ g a (not_ b))) (not_ (and_ g (not_ a) b)))
let iff_ g a b = not_ (xor_ g a b)

(* ite(c,a,b), built in the shape the emission-time MUX detector
   recognizes: ¬(¬(c∧a) ∧ ¬(¬c∧b)). *)
let ite_ g c a b =
  not_ (and_ g (not_ (and_ g c a)) (not_ (and_ g (not_ c) b)))

let maj3 g a b c = or_ g (and_ g a b) (and_ g c (or_ g a b))

type stats = { n_inputs : int; n_ands : int; n_requests : int }

let stats (g : t) =
  { n_inputs = g.n_inputs; n_ands = g.ands; n_requests = g.requests }

(* --- CNF emission --- *)

(* MUX view: n = AND(¬X, ¬Y) with X = AND(c, d'), Y = AND(¬c, e') is
   ite(c, ¬d', ¬e'). XOR is the special case ¬d' = e'. *)
let ite_view g n =
  let f0 = g.fan0.(n) and f1 = g.fan1.(n) in
  if compl f0 = 1 && compl f1 = 1 && is_and g (node f0) && is_and g (node f1)
  then begin
    let x = node f0 and y = node f1 in
    let x0 = g.fan0.(x) and x1 = g.fan1.(x) in
    let y0 = g.fan0.(y) and y1 = g.fan1.(y) in
    if x0 = not_ y0 then Some (x0, not_ x1, not_ y1)
    else if x0 = not_ y1 then Some (x0, not_ x1, not_ y0)
    else if x1 = not_ y0 then Some (x1, not_ x0, not_ y1)
    else if x1 = not_ y1 then Some (x1, not_ x0, not_ y0)
    else None
  end
  else None

let sat_lit_opt g l =
  match Hashtbl.find_opt g.sat_of (node l) with
  | Some s -> Some (if compl l = 1 then S.neg s else s)
  | None -> None

let emit g ~false_lit ~fresh ~clause root =
  let sat_var n =
    match Hashtbl.find_opt g.sat_of n with
    | Some s -> s
    | None ->
        let s = if n = 0 then false_lit else fresh () in
        Hashtbl.add g.sat_of n s;
        s
  in
  let rec emit_node n =
    let o = sat_var n in
    if n <> 0 && is_and g n && not (Hashtbl.mem g.emitted n) then begin
      Hashtbl.add g.emitted n ();
      match ite_view g n with
      | Some (c, d, e) ->
          (* n = ite(c, d, e); the inner AND pair is skipped. *)
          let lc = emit_lit c in
          let ld = emit_lit d and le = emit_lit e in
          clause [ S.neg o; S.neg lc; ld ];
          clause [ S.neg o; lc; le ];
          (* Redundant but propagation-friendly. *)
          clause [ S.neg o; ld; le ];
          clause [ o; S.neg lc; S.neg ld ];
          clause [ o; lc; S.neg le ];
          clause [ o; S.neg ld; S.neg le ]
      | None ->
          let la = emit_lit g.fan0.(n) and lb = emit_lit g.fan1.(n) in
          clause [ S.neg o; la ];
          clause [ S.neg o; lb ];
          clause [ o; S.neg la; S.neg lb ]
    end;
    o
  and emit_lit l =
    let s = emit_node (node l) in
    if compl l = 1 then S.neg s else s
  in
  emit_lit root

(* --- AIGER ASCII export --- *)

(* Creation order is already topological (fanins precede nodes), so the
   remap just splits the shared id space into inputs-first AIGER vars. *)
let to_aiger g ~outputs =
  let remap = Array.make g.nnodes 0 in
  let next = ref 1 in
  let ins = List.rev g.inputs in
  List.iter
    (fun n ->
      remap.(n) <- !next;
      incr next)
    ins;
  let ands = ref [] in
  for n = 1 to g.nnodes - 1 do
    if is_and g n then begin
      remap.(n) <- !next;
      incr next;
      ands := n :: !ands
    end
  done;
  let ands = List.rev !ands in
  let map_lit l = (2 * remap.(node l)) lor compl l in
  let buf = Buffer.create 1024 in
  let m = !next - 1 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" m g.n_inputs (List.length outputs)
       (List.length ands));
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "%d\n" (2 * remap.(n)))) ins;
  List.iter (fun o -> Buffer.add_string buf (Printf.sprintf "%d\n" (map_lit o))) outputs;
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n"
           (2 * remap.(n))
           (map_lit g.fan0.(n))
           (map_lit g.fan1.(n))))
    ands;
  Buffer.contents buf
