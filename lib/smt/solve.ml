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
  mutable cubes_spawned : int; (* always 0, in no row; perfbench reads it *)
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
    aig_nodes_in = 0;
    aig_nodes_out = 0;
  }

(* The counter table: each field declared once, with its report name
   (--stats, JSON reports, the daemon's verify response), its registry
   name (Prometheus, the ledger), its merge rule and its accessor.
   Everything that lists the solver counters is derived from it;
   [Refine.table] reads the same rows through its stats record. *)

let table =
  Metrics.Table.
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
      row "aig_nodes_in" "solve.aig_nodes_in" Sum
        (fun t -> t.aig_nodes_in) (fun t v -> t.aig_nodes_in <- v);
      row "aig_nodes_out" "solve.aig_nodes_out" Sum
        (fun t -> t.aig_nodes_out) (fun t v -> t.aig_nodes_out <- v);
    ]

let add_telemetry ~into t = Metrics.Table.merge table ~into t
let counters = Metrics.Table.names table

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
      Metrics.Table.publish table t;
      r

module Trace = Alive_trace.Trace

(* perfbench (frozen with the benchmark) still calls this. There is one
   solve path and nothing to install, so the hook ignores its argument. *)
let set_cube_runner (_ : ((unit -> unit) list -> unit) option) = ()

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
let metered_check m ctx :
    [ `Sat | `Unsat | `Unknown of reason ] =
  let sp = Trace.begin_span "sat_solve" in
  let s0 = Bitblast.stats ctx in
  let t0 = Unix.gettimeofday () in
  let result =
    match
      Bitblast.check ?conflict_limit:m.conflicts_left ?deadline:m.deadline ctx
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

(* --- Model re-evaluation ---

   Every model is evaluated against the formulas asserted in its context
   before it leaves this module. Those are the terms before [Lower], so a
   model that falsifies them exposes a bug in lowering, the AIG or the
   CNF, and is raised instead of becoming a counterexample. *)

exception Model_mismatch of string

let () =
  Printexc.register_printer (function
    | Model_mismatch q -> Some ("SAT model falsifies its formula: " ^ q)
    | _ -> None)

(* [Term.eval] computes on [Bitvec]s, which stop at [Bitvec.max_width]
   bits and raise [Invalid_argument] past it. The overflow check of a
   multiply compares at twice the width, so at widths above 32 a formula
   can hold wider terms; models of those formulas are returned
   unchecked. *)
let checked ~query formulas model =
  List.iter
    (fun (f : Term.t) ->
      let holds =
        match Model.holds model f with
        | exception Invalid_argument _ -> true
        | b -> b
      in
      if not holds then
        raise
          (Model_mismatch
             (Printf.sprintf "%s, formula %x (%d subterms)" query f.fp
                (Term.size f))))
    formulas;
  model

(* --- Queries: one context, one metered check --- *)

(* Blast [formulas] into a fresh context and run one metered check; a
   model binds their free variables and is checked against them. *)
let solve_in m ~query formulas =
  let ctx = Bitblast.create () in
  List.iter (Bitblast.assert_formula ctx) formulas;
  let result =
    match metered_check m ctx with
    | `Sat ->
        let vars =
          List.sort_uniq Stdlib.compare (List.concat_map Term.vars formulas)
        in
        `Sat (checked ~query formulas (extract_model ctx vars))
    | (`Unsat | `Unknown _) as r -> r
  in
  retire_ctx m ctx;
  result

let check_sat_into sink budget formulas =
  match solve_in (start_meter sink budget) ~query:"check_sat" formulas with
  | `Sat model -> Sat model
  | `Unsat -> Unsat
  | `Unknown r -> Unknown r

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
      let outer_formulas = ref [] in
      let add_candidate cand =
        let bindings =
          List.map (fun (n, _) -> (n, value_to_term (Model.find_exn cand n))) exists
        in
        let g = Term.not_ (Term.subst bindings f) in
        outer_formulas := g :: !outer_formulas;
        Bitblast.assert_formula outer g
      in
      (* Seed with the all-zero candidate. *)
      add_candidate
        (Model.of_list (List.map (fun (n, s) -> (n, default_value s)) exists));
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
                let o_model =
                  checked ~query:"CEGAR outer" !outer_formulas
                    (extract_model outer outer_vars)
                in
                (* Does some E satisfy f under this O? The inner check
                   blasts f[O:=oᵢ] into a fresh context. *)
                let o_bindings =
                  List.map
                    (fun (n, _) -> (n, value_to_term (Model.find_exn o_model n)))
                    outer_vars
                in
                match
                  solve_in m ~query:"CEGAR inner" [ Term.subst o_bindings f ]
                with
                | `Unknown r -> `Stop (`Unknown r)
                | `Unsat -> `Stop (`Invalid o_model)
                | `Sat e_model ->
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
      retire_ctx m outer;
      result
