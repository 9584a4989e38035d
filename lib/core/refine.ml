module T = Alive_smt.Term
module Solve = Alive_smt.Solve

type unknown_info = {
  unknown_transform : string;
  at : string;
  reason : Solve.reason;
}

type verdict =
  | Valid of { typings_checked : int }
  | Invalid of Counterexample.t
  | Unknown of unknown_info
  | Type_error of Typing.error
  | Unsupported_feature of string

let pp_verdict ppf = function
  | Valid { typings_checked } ->
      Format.fprintf ppf "valid (%d typings)" typings_checked
  | Invalid cex ->
      Format.fprintf ppf "INVALID: %s at %s" (Counterexample.describe cex.kind)
        cex.at
  | Unknown u ->
      Format.fprintf ppf "UNKNOWN: %a at %s" Solve.pp_reason u.reason u.at
  | Type_error e -> Typing.pp_error ppf e
  | Unsupported_feature msg -> Format.fprintf ppf "unsupported: %s" msg

let is_valid_verdict = function
  | Valid _ -> true
  | Invalid _ | Unknown _ | Type_error _ | Unsupported_feature _ -> false

let verdict_class = function
  | Valid _ -> `Valid
  | Invalid _ | Type_error _ -> `Invalid
  | Unknown _ | Unsupported_feature _ -> `Unknown

(* --- Per-check statistics --- *)

type unknown_breakdown = {
  by_timeout : int;
  by_conflicts : int;
  by_cegar : int;
}

let count_unknown b (r : Solve.reason) =
  match r with
  | Solve.Timeout -> { b with by_timeout = b.by_timeout + 1 }
  | Solve.Conflict_limit -> { b with by_conflicts = b.by_conflicts + 1 }
  | Solve.Cegar_limit _ -> { b with by_cegar = b.by_cegar + 1 }

type stats = {
  typings_done : int;
  queries : int;  (** refinement criteria decided (one CEGAR solve each) *)
  unknowns : int;  (** queries that exhausted their budget *)
  unknown_reasons : unknown_breakdown;
      (** the same queries, split by *why* the budget ran out *)
  typing_s : float;  (** wall seconds enumerating feasible typings *)
  vcgen_s : float;  (** wall seconds generating verification conditions *)
  telemetry : Solve.telemetry;
  elapsed : float;
}

let empty_stats () =
  {
    typings_done = 0;
    queries = 0;
    unknowns = 0;
    unknown_reasons = { by_timeout = 0; by_conflicts = 0; by_cegar = 0 };
    typing_s = 0.0;
    vcgen_s = 0.0;
    telemetry = Solve.telemetry ();
    elapsed = 0.0;
  }

let merge_stats a b =
  let telemetry = Solve.telemetry () in
  Solve.add_telemetry ~into:telemetry a.telemetry;
  Solve.add_telemetry ~into:telemetry b.telemetry;
  {
    typings_done = a.typings_done + b.typings_done;
    queries = a.queries + b.queries;
    unknowns = a.unknowns + b.unknowns;
    unknown_reasons =
      {
        by_timeout = a.unknown_reasons.by_timeout + b.unknown_reasons.by_timeout;
        by_conflicts =
          a.unknown_reasons.by_conflicts + b.unknown_reasons.by_conflicts;
        by_cegar = a.unknown_reasons.by_cegar + b.unknown_reasons.by_cegar;
      };
    typing_s = a.typing_s +. b.typing_s;
    vcgen_s = a.vcgen_s +. b.vcgen_s;
    telemetry;
    elapsed = a.elapsed +. b.elapsed;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "typings=%d queries=%d unknown=%d (timeout=%d conflicts=%d cegar=%d) \
     typing=%.3fs vcgen=%.3fs"
    s.typings_done s.queries s.unknowns s.unknown_reasons.by_timeout
    s.unknown_reasons.by_conflicts s.unknown_reasons.by_cegar s.typing_s
    s.vcgen_s;
  List.iter
    (fun (name, v) -> Format.fprintf ppf " %s=%a" name Solve.pp_value v)
    (Solve.report s.telemetry)

(* Registered at module load, like the solver counters, so it exports
   from the first scrape. *)
let queries_c = Alive_trace.Metrics.counter "refine.queries"

let publish s =
  Solve.publish s.telemetry;
  Alive_trace.Metrics.add queries_c s.queries

(* Instruction names to check: defined on both sides (the root always is,
   by the scoping rules). Checked in target order. *)
let checked_names (vc : Vcgen.vc) =
  List.filter_map
    (fun (name, _) ->
      if List.mem_assoc name vc.src.defs then Some name else None)
    vc.tgt.defs

(* The refinement queries of one typing, in scan order. Construction is
   deliberately separate from solving: the canonical digests of these
   formulas are the persistent verdict store's keys, and incremental
   re-verification ([query_digests]) must reproduce them byte-for-byte
   without running the solver. The memory congruence facts accumulate as
   reads are issued, so the construction order below is part of the
   contract and must match what [check_typing] solves. *)
let typing_queries (vc : Vcgen.vc) =
  (* Memory constraints: α from allocas plus the Ackermann congruence facts
     for initial-memory reads. Both are definitional and must back every
     check, not only criterion 4 — two loads through structurally different
     but equal addresses are related only by the congruence constraints. *)
  let memory_facts () =
    match vc.memory with
    | Some m -> m.alloca @ m.congruence ()
    | None -> []
  in
  let psi_for name =
    let src_iv = List.assoc name vc.src.defs in
    T.and_
      (vc.precondition :: src_iv.defined :: src_iv.poison_free
     :: (vc.side_constraints @ memory_facts ()))
  in
  let value_queries =
    List.concat_map
      (fun name ->
        let psi = psi_for name in
        let src_iv = List.assoc name vc.src.defs in
        let tgt_iv = List.assoc name vc.tgt.defs in
        [
          (name, Counterexample.Not_defined, T.implies psi tgt_iv.defined);
          (name, Counterexample.More_poison, T.implies psi tgt_iv.poison_free);
          ( name,
            Counterexample.Value_mismatch,
            T.implies psi (T.eq src_iv.value tgt_iv.value) );
        ])
      (checked_names vc)
  in
  (* Criterion 4 (§3.3.2): the final memories agree at every address. The
     probe address is a fresh universal variable; congruence constraints
     are collected after both reads so they cover the probe. *)
  match vc.memory with
  | None -> value_queries
  | Some m ->
      let probe = T.var "%addr.probe" (T.Bv 32) in
      let src_byte = m.src_read probe and tgt_byte = m.tgt_read probe in
      let psi4 =
        T.and_
          ((vc.precondition :: vc.side_constraints)
          @ m.alloca @ m.congruence ())
      in
      value_queries
      @ [
          ( "memory",
            Counterexample.Value_mismatch,
            T.implies psi4 (T.eq src_byte tgt_byte) );
        ]

type typing_outcome =
  | Typing_ok
  | Typing_cex of Counterexample.t * Vcgen.vc
  | Typing_unknown of { at : string; reason : Solve.reason }
  | Typing_unsupported of string

let check_typing ?budget ?(stats = empty_stats ()) ?share_memory_reads
    ?precise_pre (t : Ast.transform) typing =
  let module Trace = Alive_trace.Trace in
  Trace.with_span ~meta:[ ("transform", Trace.Str t.name) ] "check_typing"
  @@ fun () ->
  let vcgen_t0 = Alive_trace.Clock.now () in
  let vc_result =
    match Vcgen.run ?share_memory_reads ?precise_pre typing t with
    | vc -> Ok vc
    | exception Vcgen.Unsupported msg -> Error msg
  in
  let stats =
    { stats with vcgen_s = stats.vcgen_s +. (Alive_trace.Clock.now () -. vcgen_t0) }
  in
  match vc_result with
  | Error msg -> (Typing_unsupported msg, stats)
  | Ok vc ->
      let exists = vc.src.undefs in
      let queries = ref 0 and unknowns = ref 0 in
      let reasons =
        ref { by_timeout = 0; by_conflicts = 0; by_cegar = 0 }
      in
      let failure = ref None in
      let gave_up = ref None in
      let solve_uncached formula =
        Solve.check_valid_ef ?budget ~telemetry:stats.telemetry ~exists
          formula
      in
      (* A counterexample ends the typing; a budget exhaustion is recorded
         and the remaining criteria still run — a later query may produce a
         definite counterexample, which outranks Unknown. *)
      let solve_query formula =
        let module Trace = Alive_trace.Trace in
        let sp = Trace.begin_span "solve_query" in
        let tier = ref "smt" in
        Fun.protect ~finally:(fun () ->
            Trace.add_meta sp [ ("tier", Trace.Str !tier) ];
            Trace.end_span sp)
        @@ fun () ->
        (* Tier 0: try to discharge the query statically — abstract
           interpretation plus algebraic normalization on the exact
           encoded term, so a static `Valid is a verdict on the same
           formula the solver would see. Sound for proving only; anything
           unproved falls through to the cache and the solver. *)
        let static_proved =
          Alive_absint.Prover.enabled ()
          && (match Alive_absint.Prover.prove_valid ~exists formula with
             | r -> r
             | exception _ -> false)
        in
        let tl = stats.telemetry in
        if static_proved then begin
          tier := "static";
          tl.static_proved <- tl.static_proved + 1;
          (* Publish to the cache/store so replay paths (and other
             processes sharing the backing) see the same verdict with
             static provenance. *)
          if Alive_smt.Vc_cache.enabled () then begin
            let keyed = Alive_smt.Vc_cache.canon ~exists formula in
            let cost =
              {
                Solve.sat_s = 0.0;
                conflicts = 0;
                cegar_iterations = 0;
                static = true;
              }
            in
            Alive_smt.Vc_cache.store ~telemetry:tl ~cost keyed `Valid
          end;
          `Valid
        end
        (* The verdict cache fronts the solver: alpha-equivalent queries
           (across typings, widths collapse only when sorts match, and
           across transforms) hit this domain's cache; with a persistent
           backing installed, misses fall through to the disk store by
           content digest. Unknown verdicts are budget-dependent and never
           cached. *)
        else if not (Alive_smt.Vc_cache.enabled ()) then solve_uncached formula
        else begin
          let keyed = Alive_smt.Vc_cache.canon ~exists formula in
          match Alive_smt.Vc_cache.find ~telemetry:tl keyed with
          | Some (r, Alive_smt.Vc_cache.Memory) ->
              tier := "cache";
              (r :> [ `Valid | `Invalid of Alive_smt.Model.t
                    | `Unknown of Solve.reason ])
          | Some (r, Alive_smt.Vc_cache.Backing) ->
              tier := "store";
              (r :> [ `Valid | `Invalid of Alive_smt.Model.t
                    | `Unknown of Solve.reason ])
          | None ->
              (* The published verdict carries what *this query* cost, not
                 the run. *)
              let r, cost =
                Solve.with_cost tl (fun () -> solve_uncached formula)
              in
              (match r with
              | (`Valid | `Invalid _) as v ->
                  Alive_smt.Vc_cache.store ~telemetry:tl ~cost keyed v
              | `Unknown _ -> ());
              r
        end
      in
      let run_check (name, kind, formula) =
        if !failure = None then begin
          incr queries;
          match solve_query formula with
          | `Valid -> ()
          | `Unknown reason ->
              incr unknowns;
              reasons := count_unknown !reasons reason;
              if !gave_up = None then gave_up := Some (name, reason)
          | `Invalid model ->
              failure :=
                Some
                  {
                    Counterexample.transform_name = t.name;
                    kind;
                    at = name;
                    typing;
                    model;
                  }
        end
      in
      List.iter run_check (typing_queries vc);
      let stats =
        {
          stats with
          typings_done = stats.typings_done + 1;
          queries = stats.queries + !queries;
          unknowns = stats.unknowns + !unknowns;
          unknown_reasons =
            {
              by_timeout = stats.unknown_reasons.by_timeout + !reasons.by_timeout;
              by_conflicts =
                stats.unknown_reasons.by_conflicts + !reasons.by_conflicts;
              by_cegar = stats.unknown_reasons.by_cegar + !reasons.by_cegar;
            };
        }
      in
      let outcome =
        match (!failure, !gave_up) with
        | Some cex, _ -> Typing_cex (cex, vc)
        | None, Some (at, reason) -> Typing_unknown { at; reason }
        | None, None -> Typing_ok
      in
      (outcome, stats)

type result = {
  verdict : verdict;
  stats : stats;
  cex_vc : (Typing.env * Vcgen.vc) option;
}

let run ?widths ?max_typings ?share_memory_reads ?precise_pre ?budget
    (t : Ast.transform) =
  let t0 = Unix.gettimeofday () in
  let typing_t0 = Alive_trace.Clock.now () in
  let typings = Typing.enumerate ?widths ?max_typings t in
  let typing_s = Alive_trace.Clock.now () -. typing_t0 in
  let finish verdict stats cex_vc =
    publish stats;
    {
      verdict;
      stats =
        {
          stats with
          elapsed = Unix.gettimeofday () -. t0;
          typing_s = stats.typing_s +. typing_s;
        };
      cex_vc;
    }
  in
  match typings with
  | Error e -> finish (Type_error e) (empty_stats ()) None
  | Ok [] ->
      finish
        (Type_error
           { message = "no feasible typing in the width domain";
             transform = t.name })
        (empty_stats ()) None
  | Ok typings ->
      let rec go stats first_unknown = function
        | [] -> (
            match first_unknown with
            | Some u -> finish (Unknown u) stats None
            | None ->
                finish (Valid { typings_checked = stats.typings_done }) stats
                  None)
        | typing :: rest -> (
            match
              check_typing ?budget ~stats ?share_memory_reads ?precise_pre t
                typing
            with
            | Typing_ok, stats -> go stats first_unknown rest
            | Typing_cex (cex, vc), stats ->
                finish (Invalid cex) stats (Some (typing, vc))
            | Typing_unknown { at; reason }, stats ->
                let u =
                  match first_unknown with
                  | Some u -> u
                  | None -> { unknown_transform = t.name; at; reason }
                in
                go stats (Some u) rest
            | Typing_unsupported msg, stats ->
                finish (Unsupported_feature msg) stats None)
      in
      go (empty_stats ()) None typings

let query_digests ?widths ?max_typings ?share_memory_reads ?precise_pre
    (t : Ast.transform) =
  let exception Unsupported_here of string in
  match Typing.enumerate ?widths ?max_typings t with
  | Error e -> Error (Format.asprintf "%a" Typing.pp_error e)
  | Ok typings -> (
      try
        Ok
          (List.map
             (fun typing ->
               match Vcgen.run ?share_memory_reads ?precise_pre typing t with
               | vc ->
                   let exists = vc.src.undefs in
                   List.map
                     (fun (_, _, formula) ->
                       Alive_smt.Vc_cache.digest
                         (Alive_smt.Vc_cache.canon ~exists formula))
                     (typing_queries vc)
               | exception Vcgen.Unsupported msg ->
                   raise (Unsupported_here msg))
             typings)
      with Unsupported_here msg -> Error msg)

type query_probe = {
  probe_at : string;
  probe_kind : string;
  probe_digest : string;
  probe_static : bool;
  probe_cached : bool;
}

let kind_slug = function
  | Counterexample.Not_defined -> "defined"
  | Counterexample.More_poison -> "poison"
  | Counterexample.Value_mismatch -> "value"

let probe_queries ?widths ?max_typings ?share_memory_reads ?precise_pre
    (t : Ast.transform) =
  let exception Unsupported_here of string in
  match Typing.enumerate ?widths ?max_typings t with
  | Error e -> Error (Format.asprintf "%a" Typing.pp_error e)
  | Ok typings -> (
      try
        Ok
          (List.map
             (fun typing ->
               match Vcgen.run ?share_memory_reads ?precise_pre typing t with
               | vc ->
                   let exists = vc.src.undefs in
                   List.map
                     (fun (name, kind, formula) ->
                       let keyed =
                         Alive_smt.Vc_cache.canon ~exists formula
                       in
                       let static =
                         Alive_absint.Prover.enabled ()
                         && (match
                               Alive_absint.Prover.prove_valid ~exists formula
                             with
                            | r -> r
                            | exception _ -> false)
                       in
                       {
                         probe_at = name;
                         probe_kind = kind_slug kind;
                         probe_digest = Alive_smt.Vc_cache.digest keyed;
                         probe_static = static;
                         probe_cached = Alive_smt.Vc_cache.mem_local keyed;
                       })
                     (typing_queries vc)
               | exception Vcgen.Unsupported msg ->
                   raise (Unsupported_here msg))
             typings)
      with Unsupported_here msg -> Error msg)

type static_summary = {
  static_typings : int;
  static_queries : int;
  static_discharged : int;
  static_complete : bool;
}

(* Run tier 0 over every query of every feasible typing, handing each
   statically proved query to [on_proved]. *)
let static_walk ?widths ?max_typings ?share_memory_reads ~on_proved
    (t : Ast.transform) =
  let exception Unsupported_here of string in
  match Typing.enumerate ?widths ?max_typings t with
  | Error e -> Error (Format.asprintf "%a" Typing.pp_error e)
  | Ok typings -> (
      try
        let typings_n = ref 0 and queries = ref 0 and discharged = ref 0 in
        let complete = ref true in
        List.iter
          (fun typing ->
            match Vcgen.run ?share_memory_reads typing t with
            | vc ->
                incr typings_n;
                let exists = vc.src.undefs in
                List.iter
                  (fun (at, kind, formula) ->
                    incr queries;
                    let proved =
                      match
                        Alive_absint.Prover.prove_valid ~exists formula
                      with
                      | r -> r
                      | exception _ -> false
                    in
                    if proved then begin
                      incr discharged;
                      on_proved typing at kind ~exists formula
                    end
                    else complete := false)
                  (typing_queries vc)
            | exception Vcgen.Unsupported msg ->
                raise (Unsupported_here msg))
          typings;
        Ok
          {
            static_typings = !typings_n;
            static_queries = !queries;
            static_discharged = !discharged;
            static_complete = (!complete && !queries > 0);
          }
      with Unsupported_here msg -> Error msg)

let static_report ?widths ?max_typings ?share_memory_reads t =
  static_walk ?widths ?max_typings ?share_memory_reads
    ~on_proved:(fun _ _ _ ~exists:_ _ -> ())
    t

type static_recheck = {
  recheck_confirmed : int;
  recheck_unknown : int;
  recheck_refuted : string list;
}

let static_recheck_conflicts = 20_000

let static_check ?widths ?max_typings ?share_memory_reads t =
  let budget = Solve.budget ~conflict_limit:static_recheck_conflicts () in
  let confirmed = ref 0 and unknown = ref 0 and refuted = ref [] in
  (* Straight to the solver, past the verdict cache, counting into a
     private record so the re-solve leaves the registry alone. *)
  let on_proved typing at kind ~exists formula =
    match
      Solve.check_valid_ef ~budget ~telemetry:(Solve.telemetry ()) ~exists
        formula
    with
    | `Valid -> incr confirmed
    | `Unknown _ -> incr unknown
    | `Invalid _ ->
        refuted :=
          Format.asprintf "typing [%a], %s (%s)" Typing.pp_env typing at
            (kind_slug kind)
          :: !refuted
  in
  static_walk ?widths ?max_typings ?share_memory_reads ~on_proved t
  |> Result.map (fun summary ->
         ( summary,
           {
             recheck_confirmed = !confirmed;
             recheck_unknown = !unknown;
             recheck_refuted = List.rev !refuted;
           } ))

let check_with_vc ?widths ?max_typings ?share_memory_reads ?budget t =
  let r = run ?widths ?max_typings ?share_memory_reads ?budget t in
  (r.verdict, r.cex_vc)

let check ?widths ?max_typings ?share_memory_reads ?budget t =
  (run ?widths ?max_typings ?share_memory_reads ?budget t).verdict

let render_verdict t verdict =
  match verdict with
  | Valid { typings_checked } ->
      Printf.sprintf "Optimization %s is correct (%d typings checked)" t.Ast.name
        typings_checked
  | Invalid cex -> (
      (* Re-derive the VC for rendering. *)
      match
        try Some (Vcgen.run cex.typing t) with Vcgen.Unsupported _ -> None
      with
      | Some vc -> Counterexample.render t vc cex
      | None -> "ERROR: " ^ Counterexample.describe cex.kind)
  | Unknown u ->
      Printf.sprintf
        "Optimization %s could not be decided within budget: %s at %s"
        t.Ast.name
        (Solve.reason_to_string u.reason)
        u.at
  | Type_error e -> Format.asprintf "%a" Typing.pp_error e
  | Unsupported_feature msg -> "unsupported: " ^ msg
