module S = Alive_sat.Solver

(* --- Budgets and give-up reasons --- *)

type reason = Timeout | Conflict_limit | Cegar_limit of int

let pp_reason ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Conflict_limit -> Format.pp_print_string ppf "conflict limit"
  | Cegar_limit n -> Format.fprintf ppf "CEGAR limit (%d iterations)" n

let reason_to_string r = Format.asprintf "%a" pp_reason r

(* Stable machine-readable tag, used by verdict names, JSON reports and
   the per-reason unknown counters. *)
let reason_slug = function
  | Timeout -> "timeout"
  | Conflict_limit -> "conflicts"
  | Cegar_limit _ -> "cegar"

type budget = {
  timeout : float option;
  conflict_limit : int option;
  max_cegar : int;
}

let default_max_cegar = 1 lsl 16

let no_budget = { timeout = None; conflict_limit = None; max_cegar = default_max_cegar }

let budget ?timeout ?conflict_limit ?(max_cegar = default_max_cegar) () =
  { timeout; conflict_limit; max_cegar }

(* --- Telemetry --- *)

module Metrics = Alive_trace.Metrics

type telemetry = {
  mutable checks : int;
  mutable sat_time : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable clauses : int;
  mutable vars : int;
  mutable peak_clauses : int;
  mutable peak_vars : int;
  mutable cegar_iterations : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable static_proved : int;
  mutable cubes_spawned : int;
  mutable cubes_pruned : int;
  mutable aig_nodes_in : int;
  mutable aig_nodes_out : int;
}

let telemetry () =
  {
    checks = 0;
    sat_time = 0.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    clauses = 0;
    vars = 0;
    peak_clauses = 0;
    peak_vars = 0;
    cegar_iterations = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    store_hits = 0;
    store_misses = 0;
    static_proved = 0;
    cubes_spawned = 0;
    cubes_pruned = 0;
    aig_nodes_in = 0;
    aig_nodes_out = 0;
  }

(* The counter table: each field declared once, with its report name
   (--stats, JSON reports, the daemon's verify response), its registry
   name (Prometheus, the ledger), its accessor and how two values merge.
   Everything that lists the counters is derived from it. *)

type _ merge = Sum : int merge | Max : int merge | Sum_seconds : float merge

type counter =
  | Counter : {
      name : string;
      metric : string;
      merge : 'a merge;
      get : telemetry -> 'a;
      set : telemetry -> 'a -> unit;
      handle : Metrics.counter;
    }
      -> counter

(* Registered at module load so every counter exports (at zero) from the
   first Prometheus scrape. *)
let row (type a) name metric (merge : a merge) get set =
  let handle =
    match merge with
    | Sum -> Metrics.counter metric
    | Max -> Metrics.peak metric
    | Sum_seconds -> Metrics.seconds metric
  in
  Counter { name; metric; merge; get; set; handle }

let table =
  [
    row "sat_time_s" "solve.sat_s" Sum_seconds
      (fun t -> t.sat_time) (fun t v -> t.sat_time <- v);
    row "checks" "solve.checks" Sum
      (fun t -> t.checks) (fun t v -> t.checks <- v);
    row "conflicts" "solve.conflicts" Sum
      (fun t -> t.conflicts) (fun t v -> t.conflicts <- v);
    row "decisions" "solve.decisions" Sum
      (fun t -> t.decisions) (fun t v -> t.decisions <- v);
    row "propagations" "solve.propagations" Sum
      (fun t -> t.propagations) (fun t v -> t.propagations <- v);
    row "restarts" "solve.restarts" Sum
      (fun t -> t.restarts) (fun t v -> t.restarts <- v);
    row "clauses" "solve.clauses" Sum
      (fun t -> t.clauses) (fun t v -> t.clauses <- v);
    row "vars" "solve.vars" Sum (fun t -> t.vars) (fun t v -> t.vars <- v);
    row "peak_clauses" "solve.peak_clauses" Max
      (fun t -> t.peak_clauses) (fun t v -> t.peak_clauses <- v);
    row "peak_vars" "solve.peak_vars" Max
      (fun t -> t.peak_vars) (fun t v -> t.peak_vars <- v);
    row "cegar_iterations" "solve.cegar_iterations" Sum
      (fun t -> t.cegar_iterations) (fun t v -> t.cegar_iterations <- v);
    row "cache_hits" "vc_cache.hits" Sum
      (fun t -> t.cache_hits) (fun t v -> t.cache_hits <- v);
    row "cache_misses" "vc_cache.misses" Sum
      (fun t -> t.cache_misses) (fun t v -> t.cache_misses <- v);
    row "cache_evictions" "vc_cache.evictions" Sum
      (fun t -> t.cache_evictions) (fun t v -> t.cache_evictions <- v);
    row "store_hits" "vc_cache.store_hits" Sum
      (fun t -> t.store_hits) (fun t v -> t.store_hits <- v);
    row "store_misses" "vc_cache.store_misses" Sum
      (fun t -> t.store_misses) (fun t v -> t.store_misses <- v);
    row "static_proved" "refine.static_proved" Sum
      (fun t -> t.static_proved) (fun t v -> t.static_proved <- v);
    row "cubes_spawned" "solve.cubes_spawned" Sum
      (fun t -> t.cubes_spawned) (fun t v -> t.cubes_spawned <- v);
    row "cubes_pruned" "solve.cubes_pruned" Sum
      (fun t -> t.cubes_pruned) (fun t v -> t.cubes_pruned <- v);
    row "aig_nodes_in" "solve.aig_nodes_in" Sum
      (fun t -> t.aig_nodes_in) (fun t v -> t.aig_nodes_in <- v);
    row "aig_nodes_out" "solve.aig_nodes_out" Sum
      (fun t -> t.aig_nodes_out) (fun t v -> t.aig_nodes_out <- v);
  ]

let combine (type a) (merge : a merge) (x : a) (y : a) : a =
  match merge with Sum -> x + y | Max -> max x y | Sum_seconds -> x +. y

let add_telemetry ~into t =
  List.iter
    (fun (Counter c) -> c.set into (combine c.merge (c.get into) (c.get t)))
    table

let publish t =
  List.iter
    (fun (Counter c) ->
      let v = c.get t in
      match c.merge with
      | Sum -> Metrics.add c.handle v
      | Max -> Metrics.raise_to c.handle v
      | Sum_seconds -> Metrics.add_seconds c.handle v)
    table

type value = Count of int | Seconds of float

let value (type a) (merge : a merge) (v : a) =
  match merge with Sum -> Count v | Max -> Count v | Sum_seconds -> Seconds v

let report t =
  List.map (fun (Counter c) -> (c.name, value c.merge (c.get t))) table

let counters = List.map (fun (Counter c) -> (c.name, c.metric)) table

let pp_value ppf = function
  | Count n -> Format.pp_print_int ppf n
  | Seconds s -> Format.fprintf ppf "%.3f" s

(* The cost of deciding one query: the provenance a verdict store files
   with the verdict. *)
type cost = {
  sat_s : float;
  conflicts : int;
  cegar_iterations : int;
  static : bool;
}

let with_cost t f =
  let sat0 = t.sat_time and conf0 = t.conflicts and cegar0 = t.cegar_iterations in
  let r = f () in
  ( r,
    {
      sat_s = t.sat_time -. sat0;
      conflicts = t.conflicts - conf0;
      cegar_iterations = t.cegar_iterations - cegar0;
      static = false;
    } )

(* A meter tracks what one logical query has consumed: the deadline is fixed
   at query start, the conflict allowance is drawn down across every solver
   call the query makes (CEGAR rounds share one budget). *)
type meter = {
  deadline : float option;  (* absolute, gettimeofday scale *)
  mutable conflicts_left : int option;
  sink : telemetry;
}

let start_meter sink (b : budget) =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) b.timeout;
    conflicts_left = b.conflict_limit;
    sink;
  }

(* A call made without the caller's record is a unit of solver work of
   its own: it counts into a private record, published when it returns. *)
let owned sink f =
  match sink with
  | Some t -> f t
  | None ->
      let t = telemetry () in
      let r = f t in
      publish t;
      r

module Trace = Alive_trace.Trace

(* --- Cube-and-conquer switches --- *)

let cube_flag = Atomic.make true
let set_cubes b = Atomic.set cube_flag b
let cubes_enabled () = Atomic.get cube_flag

(* Conflicts a query may burn whole before it is split into cubes. *)
let cube_threshold_a = Atomic.make 2000
let set_cube_threshold n = Atomic.set cube_threshold_a (max 1 n)
let cube_threshold () = Atomic.get cube_threshold_a

(* High-order bits fixed per cube: 2^cube_bits cubes partition the split
   variable's range. *)
let cube_bits = 2

(* Parallel fan-out hook. [None] (the default, and always the case on a
   single-core pool): cubes are scanned sequentially as assumption sets on
   the original context. Installed by the engine when its pool has real
   parallelism: receives one thunk per cube (plus the whole-query
   portfolio racer) and must run every thunk to completion before
   returning. *)
let cube_runner_a : ((unit -> unit) list -> unit) option Atomic.t =
  Atomic.make None

let set_cube_runner r = Atomic.set cube_runner_a r
let cube_runner () = Atomic.get cube_runner_a

(* --- Optional per-query dumps: DIMACS (--dump-cnf), AIGER (--dump-aig) --- *)

let dump_dir : string option Atomic.t = Atomic.make None
let set_dump_dir d = Atomic.set dump_dir d
let dump_aig_dir : string option Atomic.t = Atomic.make None
let set_dump_aig_dir d = Atomic.set dump_aig_dir d
let dump_seq = Atomic.make 0

let dump_query ctx result =
  let cnf_dir = Atomic.get dump_dir in
  let aig_dir = Atomic.get dump_aig_dir in
  if not (cnf_dir = None && aig_dir = None) then begin
    (* One sequence number per query, shared by both artifact kinds, so
       q000017-unsat.cnf and q000017-unsat.aag describe the same solve. *)
    let n = Atomic.fetch_and_add dump_seq 1 in
    let tag =
      match result with
      | `Sat -> "sat"
      | `Unsat -> "unsat"
      | `Unknown r -> "unknown-" ^ reason_slug r
    in
    (match cnf_dir with
    | None -> ()
    | Some dir ->
        let file = Filename.concat dir (Printf.sprintf "q%06d-%s.cnf" n tag) in
        let nvars, clauses = Bitblast.export ctx in
        let oc = open_out file in
        Printf.fprintf oc "c alive query %d result %s\n" n tag;
        output_string oc (Alive_sat.Dimacs.print ~nvars clauses);
        close_out oc);
    match aig_dir with
    | None -> ()
    | Some dir -> (
        match Bitblast.export_aiger ctx with
        | None -> () (* direct (non-AIG) encoding: nothing to dump *)
        | Some text ->
            let file =
              Filename.concat dir (Printf.sprintf "q%06d-%s.aag" n tag)
            in
            let oc = open_out file in
            output_string oc text;
            close_out oc)
  end

(* One solver invocation under the meter, with stats deltas recorded.
   Returns [`Unknown] instead of letting [Budget_exceeded] escape. *)
let metered_check ?assumptions m ctx :
    [ `Sat | `Unsat | `Unknown of reason ] =
  let sp = Trace.begin_span "sat_solve" in
  let s0 = Bitblast.stats ctx in
  let t0 = Unix.gettimeofday () in
  let result =
    match
      Bitblast.check ?assumptions ?conflict_limit:m.conflicts_left
        ?deadline:m.deadline ctx
    with
    | `Sat -> `Sat
    | `Unsat -> `Unsat
    | exception S.Budget_exceeded r ->
        `Unknown (match r with S.Conflicts -> Conflict_limit | S.Deadline -> Timeout)
  in
  let s1 = Bitblast.stats ctx in
  let spent = s1.conflicts - s0.conflicts in
  m.conflicts_left <-
    Option.map (fun left -> max 0 (left - spent)) m.conflicts_left;
  let t = m.sink in
  t.checks <- t.checks + 1;
  t.sat_time <- t.sat_time +. (Unix.gettimeofday () -. t0);
  t.conflicts <- t.conflicts + spent;
  t.decisions <- t.decisions + (s1.decisions - s0.decisions);
  t.propagations <- t.propagations + (s1.propagations - s0.propagations);
  t.restarts <- t.restarts + (s1.restarts - s0.restarts);
  Trace.add_meta sp
    [
      ( "result",
        Trace.Str
          (match result with
          | `Sat -> "sat"
          | `Unsat -> "unsat"
          | `Unknown r -> "unknown:" ^ reason_slug r) );
      ("conflicts", Trace.Int spent);
      ("clauses", Trace.Int s1.clauses);
      ("vars", Trace.Int s1.vars);
    ];
  Trace.end_span sp;
  dump_query ctx result;
  result

(* Clause/variable counts grow during [assert_formula], outside any solve
   call, so they are charged once per context when the query is done with
   it rather than as solve-time deltas. [clauses]/[vars] accumulate across
   contexts; the peaks record the largest single context, which is what the
   encoding's footprint per query actually is. *)
let retire_ctx m ctx =
  let t = m.sink in
  let s = Bitblast.stats ctx in
  t.clauses <- t.clauses + s.clauses;
  t.vars <- t.vars + s.vars;
  t.peak_clauses <- max t.peak_clauses s.clauses;
  t.peak_vars <- max t.peak_vars s.vars;
  match Bitblast.aig_stats ctx with
  | None -> ()
  | Some a ->
      t.aig_nodes_in <- t.aig_nodes_in + a.Aig.n_requests;
      t.aig_nodes_out <- t.aig_nodes_out + a.Aig.n_ands

(* --- Public interface --- *)

type answer = Sat of Model.t | Unsat | Unknown of reason

let value_to_term = function
  | Term.Vbool b -> Term.bool_ b
  | Term.Vbv c -> Term.const c

let extract_model ctx vars =
  Trace.with_span "model_extract" (fun () ->
      Model.of_list
        (List.map
           (fun (name, sort) -> (name, Bitblast.model_value ctx name sort))
           vars))

(* --- Cube-and-conquer ---

   A query that still has no answer after [cube_threshold] conflicts is
   split on the high-order bits of the variable [Lower.split_candidates]
   ranks best (divisors first, then multiplier operands, then variable
   shift amounts): the 2^cube_bits values of those bits partition the
   search space, and each cube is solved as its own subproblem. Any Sat
   cube answers the query Sat; all cubes Unsat answers Unsat — the join is
   exact because the cubes are exhaustive and mutually exclusive.

   Without a runner the cubes are scanned sequentially as assumption sets
   on the original context, so clauses learnt refuting one cube prune its
   siblings. With a runner installed (a pool with real parallelism) each
   cube solves on a fresh context in its own task, raced against one
   whole-query task that uses the Plaisted-Greenbaum encoding — the
   portfolio leg: on one-sided-friendly queries the alternative encoding
   often finishes before any cube. The first decisive task flips an atomic
   flag; tasks that start after it are pruned. In parallel mode each task
   gets its own copy of the remaining conflict allowance (wall clock stays
   bounded by the shared absolute deadline), and per-task telemetry is
   folded into the caller's sink single-threaded after the join. *)

let check_sat_into sink budget formulas =
  let ctx = Bitblast.create () in
  List.iter (Bitblast.assert_formula ctx) formulas;
  let m = start_meter sink budget in
  let qvars =
    List.sort_uniq Stdlib.compare (List.concat_map Term.vars formulas)
  in
  let finish c = Sat (extract_model c qvars) in
  let plain () =
    match metered_check m ctx with
    | `Unsat -> Unsat
    | `Unknown r -> Unknown r
    | `Sat -> finish ctx
  in
  let note_spawned n = m.sink.cubes_spawned <- m.sink.cubes_spawned + n in
  (* Sequential fallback: each cube is an assumption set on the original
     context, sharing its learnt clauses. The meter keeps drawing down the
     query's single conflict allowance across cubes. *)
  let scan_cubes cubes =
    note_spawned (List.length cubes);
    let rec go = function
      | [] -> Unsat
      | cube :: rest -> (
          match metered_check ~assumptions:[ cube ] m ctx with
          | `Sat -> finish ctx
          | `Unknown r -> Unknown r
          | `Unsat -> go rest)
    in
    go cubes
  in
  (* Parallel fan-out: fresh context per cube, plus slot [n] solving the
     whole query under the Plaisted-Greenbaum encoding. *)
  let race_cubes run cubes =
    let n = List.length cubes in
    note_spawned n;
    let slots = Array.make (n + 1) `Pending in
    let locals = Array.init (n + 1) (fun _ -> telemetry ()) in
    let won = Atomic.make false in
    let shared_left = m.conflicts_left in
    let task i ~cube ~encoding () =
      if Atomic.get won then slots.(i) <- `Pruned
      else begin
        let c = Bitblast.create ?encoding () in
        List.iter (Bitblast.assert_formula c) formulas;
        (match cube with
        | Some f -> Bitblast.assert_formula c f
        | None -> ());
        let mi =
          { deadline = m.deadline;
            conflicts_left = shared_left;
            sink = locals.(i) }
        in
        let r =
          match metered_check mi c with
          | `Sat ->
              Atomic.set won true;
              `Sat (extract_model c qvars)
          | `Unsat ->
              (* A whole-query Unsat is decisive; a cube Unsat is not. *)
              if cube = None then Atomic.set won true;
              `Unsat
          | `Unknown r -> `Unknown r
        in
        retire_ctx mi c;
        slots.(i) <- r
      end
    in
    let tasks =
      List.mapi (fun i cube -> task i ~cube:(Some cube) ~encoding:None) cubes
      @ [ task n ~cube:None ~encoding:(Some `Plaisted_greenbaum) ]
    in
    run tasks;
    Array.iter (fun l -> add_telemetry ~into:m.sink l) locals;
    let pruned = ref 0 in
    let sat = ref None in
    let unknown = ref None in
    let portfolio_unsat = ref false in
    let cubes_unsat = ref 0 in
    Array.iteri
      (fun i s ->
        match s with
        | `Pruned -> incr pruned
        | `Pending -> ()
        | `Sat model -> if !sat = None then sat := Some model
        | `Unsat -> if i = n then portfolio_unsat := true else incr cubes_unsat
        | `Unknown r -> if i < n && !unknown = None then unknown := Some r)
      slots;
    m.sink.cubes_pruned <- m.sink.cubes_pruned + !pruned;
    match !sat with
    | Some model -> Sat model
    | None ->
        if !portfolio_unsat || !cubes_unsat = n then Unsat
        else Unknown (Option.value ~default:Conflict_limit !unknown)
  in
  let cubed () =
    match Lower.split_candidates formulas with
    | [] -> plain () (* nothing worth splitting on: finish the query whole *)
    | (name, w, _) :: _ -> (
        let k = min cube_bits w in
        let cubes =
          List.init (1 lsl k) (fun i ->
              Term.eq
                (Term.extract ~hi:(w - 1) ~lo:(w - k)
                   (Term.var name (Term.Bv w)))
                (Term.const (Bitvec.of_int ~width:k i)))
        in
        match Atomic.get cube_runner_a with
        | Some run -> race_cubes run cubes
        | None -> scan_cubes cubes)
  in
  let threshold = cube_threshold () in
  let result =
    if
      (not (cubes_enabled ()))
      || (match m.conflicts_left with
         | Some l -> l <= threshold
         | None -> false)
    then plain ()
    else begin
      (* Probe: spend at most [threshold] conflicts on the whole query
         before deciding to split. The probe draws on the real allowance. *)
      let real_left = m.conflicts_left in
      m.conflicts_left <- Some threshold;
      let probe = metered_check m ctx in
      let probe_spent =
        threshold - Option.value ~default:0 m.conflicts_left
      in
      m.conflicts_left <-
        Option.map (fun l -> max 0 (l - probe_spent)) real_left;
      match probe with
      | `Sat -> finish ctx
      | `Unsat -> Unsat
      | `Unknown Conflict_limit -> cubed ()
      | `Unknown r -> Unknown r
    end
  in
  retire_ctx m ctx;
  result

let check_sat ?(budget = no_budget) ?telemetry formulas =
  owned telemetry (fun sink -> check_sat_into sink budget formulas)

let is_valid_into sink budget f =
  match check_sat_into sink budget [ Term.not_ f ] with
  | Unsat -> `Valid
  | Sat m -> `Invalid m
  | Unknown r -> `Unknown r

let is_valid ?(budget = no_budget) ?telemetry f =
  owned telemetry (fun sink -> is_valid_into sink budget f)

let default_value = function
  | Term.Bool -> Term.Vbool false
  | Term.Bv n -> Term.Vbv (Bitvec.zero n)

(* Incremental-CEGAR switch: keep one inner context alive across CEGAR
   iterations, asserting each round's instantiation under a fresh guard
   variable and solving with the guard assumed. Off, every round re-creates
   and re-blasts the inner formula from scratch (the historical behavior,
   kept for A/B comparison and differential testing). *)
let incremental_flag = Atomic.make true
let set_incremental b = Atomic.set incremental_flag b
let incremental_enabled () = Atomic.get incremental_flag

let check_valid_ef ?(budget = no_budget) ?telemetry ?max_iterations ~exists f =
  let max_iterations = Option.value max_iterations ~default:budget.max_cegar in
  owned telemetry @@ fun sink ->
  match exists with
  | [] -> is_valid_into sink budget f
  | _ ->
      let m = start_meter sink budget in
      let evar_names = List.map fst exists in
      let outer_vars =
        List.filter (fun (n, _) -> not (List.mem n evar_names)) (Term.vars f)
      in
      (* The negation ∃O ∀E ¬f, solved by expanding the universal E over a
         growing candidate set. The outer solver is incremental: each new
         candidate adds one more conjunct ¬f[E:=cand]. *)
      let outer = Bitblast.create () in
      let add_candidate cand =
        let bindings =
          List.map (fun (n, _) -> (n, value_to_term (Model.find_exn cand n))) exists
        in
        Bitblast.assert_formula outer (Term.not_ (Term.subst bindings f))
      in
      (* Seed with the all-zero candidate. *)
      add_candidate
        (Model.of_list (List.map (fun (n, s) -> (n, default_value s)) exists));
      (* The inner ∃E check. Incremental mode keeps one context for the whole
         query: round [i]'s instantiation f[O:=oᵢ] is asserted as
         guardᵢ ⇒ f[O:=oᵢ] and solved assuming guardᵢ, so variable bits are
         allocated once and learnt clauses carry across rounds. Earlier
         guards are left unconstrained — the solver may simply set them
         false — so each round sees exactly its own instantiation. *)
      let use_incremental = incremental_enabled () in
      let inner_ctx = ref None in
      let inner_rounds = ref 0 in
      let solve_inner f_inner =
        if use_incremental then begin
          let inner =
            match !inner_ctx with
            | Some c -> c
            | None ->
                let c = Bitblast.create () in
                inner_ctx := Some c;
                c
          in
          let guard =
            Term.var (Printf.sprintf "!cegar.on%d" !inner_rounds) Term.Bool
          in
          incr inner_rounds;
          Bitblast.assert_formula inner (Term.implies guard f_inner);
          (inner, metered_check ~assumptions:[ guard ] m inner)
        end
        else begin
          let inner = Bitblast.create () in
          Bitblast.assert_formula inner f_inner;
          let r = metered_check m inner in
          retire_ctx m inner;
          (inner, r)
        end
      in
      (* One refinement round under its own span, so iterations render as
         sibling slices rather than one ever-deepening nest. The recursion
         happens outside the span. *)
      let step iter =
        Trace.with_span ~meta:[ ("iteration", Trace.Int iter) ] "cegar_iter"
          (fun () ->
            match metered_check m outer with
            | `Unknown r -> `Stop (`Unknown r)
            | `Unsat -> `Stop `Valid
            | `Sat -> (
                let o_model = extract_model outer outer_vars in
                (* Does some E satisfy f under this O? *)
                let o_bindings =
                  List.map
                    (fun (n, _) -> (n, value_to_term (Model.find_exn o_model n)))
                    outer_vars
                in
                let f_inner = Term.subst o_bindings f in
                let inner, inner_result = solve_inner f_inner in
                match inner_result with
                | `Unknown r -> `Stop (`Unknown r)
                | `Unsat -> `Stop (`Invalid o_model)
                | `Sat ->
                    let e_model =
                      extract_model inner
                        (List.sort_uniq Stdlib.compare (Term.vars f_inner))
                    in
                    let cand =
                      Model.of_list
                        (List.map
                           (fun (n, s) ->
                             ( n,
                               match Model.find e_model n with
                               | Some v -> v
                               | None -> default_value s ))
                           exists)
                    in
                    add_candidate cand;
                    `Refine))
      in
      let rec loop iter =
        if iter >= max_iterations then `Unknown (Cegar_limit iter)
        else begin
          sink.cegar_iterations <- sink.cegar_iterations + 1;
          match step iter with
          | `Stop r -> r
          | `Refine -> loop (iter + 1)
        end
      in
      let result = loop 0 in
      (match !inner_ctx with Some c -> retire_ctx m c | None -> ());
      retire_ctx m outer;
      result
