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

let verdict_name = function
  | Valid _ -> "valid"
  | Invalid _ -> "invalid"
  | Unknown u -> "unknown:" ^ Solve.reason_slug u.reason
  | Type_error _ -> "type-error"
  | Unsupported_feature _ -> "unsupported"

(* --- Per-check statistics --- *)

type stats = {
  mutable typings_done : int;
  mutable queries : int;
  mutable unknown_timeout : int;
  mutable unknown_conflicts : int;
  mutable unknown_cegar : int;
  mutable typing_s : float;
  mutable vcgen_s : float;
  mutable static_s : float;
  telemetry : Solve.telemetry;
  mutable elapsed : float;
}

let empty_stats () =
  {
    typings_done = 0;
    queries = 0;
    unknown_timeout = 0;
    unknown_conflicts = 0;
    unknown_cegar = 0;
    typing_s = 0.0;
    vcgen_s = 0.0;
    static_s = 0.0;
    telemetry = Solve.telemetry ();
    elapsed = 0.0;
  }

let table =
  Alive_trace.Metrics.Table.(
    [
      row "typings" "refine.typings" Sum
        (fun s -> s.typings_done) (fun s v -> s.typings_done <- v);
      row "queries" "refine.queries" Sum
        (fun s -> s.queries) (fun s v -> s.queries <- v);
      row "unknown_timeout" "refine.unknown.timeout" Sum
        (fun s -> s.unknown_timeout) (fun s v -> s.unknown_timeout <- v);
      row "unknown_conflicts" "refine.unknown.conflicts" Sum
        (fun s -> s.unknown_conflicts) (fun s v -> s.unknown_conflicts <- v);
      row "unknown_cegar" "refine.unknown.cegar" Sum
        (fun s -> s.unknown_cegar) (fun s v -> s.unknown_cegar <- v);
      row "typing_s" "refine.typing_s" Sum_seconds
        (fun s -> s.typing_s) (fun s v -> s.typing_s <- v);
      row "vcgen_s" "refine.vcgen_s" Sum_seconds
        (fun s -> s.vcgen_s) (fun s v -> s.vcgen_s <- v);
      row "static_s" "refine.static_s" Sum_seconds
        (fun s -> s.static_s) (fun s v -> s.static_s <- v);
    ]
    @ List.map (via (fun s -> s.telemetry)) Solve.table)

let merge_stats ~into s =
  Alive_trace.Metrics.Table.merge table ~into s;
  into.elapsed <- into.elapsed +. s.elapsed

let pp_stats = Alive_trace.Metrics.Table.pp table

(* Instruction names to check: defined on both sides (the root always is,
   by the scoping rules). Checked in target order. *)
let checked_names (vc : Vcgen.vc) =
  List.filter_map
    (fun (name, _) ->
      if List.mem_assoc name vc.src.defs then Some name else None)
    vc.tgt.defs

(* The refinement queries of one typing, in scan order. Construction is
   deliberately separate from solving: the canonical digests of these
   formulas are the persistent verdict store's keys, and [query_digests]
   must reproduce them byte-for-byte without running the solver. The
   memory congruence facts accumulate as reads are issued, so the
   construction order below is part of the contract and must match what
   [check_typing] solves. *)
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

(* --- The walk ---

   Every reader of a transform's refinement queries takes the same steps,
   each written once here: the feasible typings in scan order (a type
   error or an empty width domain is [Type_error], decided in
   [feasible_typings] and nowhere else), each typing's VC ([typing_vc]: an
   unsupported construct ends the walk), its queries in [typing_queries]
   order, and tier 0 on each ([static_proved]). [check_typing] and [scan]
   are the walk with a solver, which stops at the first counterexample;
   [map_queries] is the walk without one. *)

let feasible_typings ?widths (t : Ast.transform) =
  match Typing.enumerate ?widths t with
  | Ok [] ->
      Error
        { Typing.message = "no feasible typing in the width domain";
          transform = t.name }
  | r -> r

let typing_vc ?share_memory_reads ?precise_pre (t : Ast.transform) typing =
  match Vcgen.run ?share_memory_reads ?precise_pre typing t with
  | vc -> Ok vc
  | exception Vcgen.Unsupported msg -> Error msg

(* Tier 0: abstract interpretation plus algebraic normalization on the
   exact encoded term, so a static proof is a verdict on the same formula
   the solver would see. Sound for proving only; a crash in the prover is
   just "not proved". *)
let static_proved ~exists formula =
  match Alive_absint.Prover.prove_valid ~exists formula with
  | r -> r
  | exception _ -> false

(* The tier ladder, in the order a query climbs it. *)
type tier = Static | Cache | Store | Smt

let tier_name = function
  | Static -> "static"
  | Cache -> "cache"
  | Store -> "store"
  | Smt -> "smt"

let hit_tier = function
  | Alive_smt.Vc_cache.Memory -> Cache
  | Alive_smt.Vc_cache.Backing -> Store

type typing_outcome =
  | Typing_ok
  | Typing_cex of Counterexample.t * Vcgen.vc
  | Typing_unknown of { at : string; reason : Solve.reason }
  | Typing_unsupported of string

let check_typing ?budget ?share_memory_reads ?precise_pre (t : Ast.transform)
    typing =
  let module Trace = Alive_trace.Trace in
  Trace.with_span ~meta:[ ("transform", Trace.Str t.name) ] "check_typing"
  @@ fun () ->
  let vcgen_t0 = Alive_trace.Clock.now () in
  let vc_result = typing_vc ?share_memory_reads ?precise_pre t typing in
  let stats = empty_stats () in
  stats.vcgen_s <- Alive_trace.Clock.now () -. vcgen_t0;
  match vc_result with
  | Error msg -> (Typing_unsupported msg, stats)
  | Ok vc ->
      let exists = vc.src.undefs in
      let tl = stats.telemetry in
      let solve_uncached formula =
        Solve.check_valid_ef ?budget ~telemetry:tl ~exists formula
      in
      let solve_query formula =
        let sp = Trace.begin_span "solve_query" in
        let tier = ref Smt in
        Fun.protect ~finally:(fun () ->
            Trace.add_meta sp [ ("tier", Trace.Str (tier_name !tier)) ];
            Trace.end_span sp)
        @@ fun () ->
        let static_t0 = Alive_trace.Clock.now () in
        let proved = static_proved ~exists formula in
        stats.static_s <-
          stats.static_s +. (Alive_trace.Clock.now () -. static_t0);
        if proved then begin
          tier := Static;
          tl.static_proved <- tl.static_proved + 1;
          (* Publish to the cache/store so a later query with the same
             digest, here or in another process sharing the backing,
             finds the verdict, and [explain] shows its static
             provenance. *)
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
          | Some (r, source) ->
              tier := hit_tier source;
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
      (* A counterexample ends the typing; a budget exhaustion is recorded
         and the remaining criteria still run — a later query may produce a
         definite counterexample, which outranks Unknown. *)
      let rec go gave_up = function
        | [] -> (
            match gave_up with
            | Some (at, reason) -> Typing_unknown { at; reason }
            | None -> Typing_ok)
        | (at, kind, formula) :: rest -> (
            stats.queries <- stats.queries + 1;
            match solve_query formula with
            | `Valid -> go gave_up rest
            | `Unknown reason ->
                (match reason with
                | Solve.Timeout ->
                    stats.unknown_timeout <- stats.unknown_timeout + 1
                | Solve.Conflict_limit ->
                    stats.unknown_conflicts <- stats.unknown_conflicts + 1
                | Solve.Cegar_limit _ ->
                    stats.unknown_cegar <- stats.unknown_cegar + 1);
                go (if gave_up = None then Some (at, reason) else gave_up) rest
            | `Invalid model ->
                let cex =
                  { Counterexample.transform_name = t.name; kind; at; typing; model }
                in
                Typing_cex (cex, vc))
      in
      stats.typings_done <- 1;
      (go None (typing_queries vc), stats)

type result = {
  verdict : verdict;
  stats : stats;
  cex_vc : (Typing.env * Vcgen.vc) option;
}

let stops_scan = function
  | Typing_cex _ | Typing_unsupported _ -> true
  | Typing_ok | Typing_unknown _ -> false

(* The scan's verdict rule: the lowest-index counterexample or unsupported
   construct wins, else the first Unknown, else Valid. *)
let scan_verdict (t : Ast.transform) typings_checked outcomes =
  let rec go unknown = function
    | [] ->
        ( (match unknown with
          | Some u -> Unknown u
          | None -> Valid { typings_checked }),
          None )
    | Typing_cex (cex, vc) :: _ -> (Invalid cex, Some (cex.typing, vc))
    | Typing_unsupported msg :: _ -> (Unsupported_feature msg, None)
    | Typing_unknown { at; reason } :: rest when unknown = None ->
        go (Some { unknown_transform = t.name; at; reason }) rest
    | (Typing_ok | Typing_unknown _) :: rest -> go unknown rest
  in
  go None outcomes

let scan ~widths (t : Ast.transform) check =
  let t0 = Unix.gettimeofday () in
  let typing_t0 = Alive_trace.Clock.now () in
  let typings = feasible_typings ?widths t in
  let stats = empty_stats () in
  stats.typing_s <- Alive_trace.Clock.now () -. typing_t0;
  let verdict, cex_vc =
    match typings with
    | Error e -> (Type_error e, None)
    | Ok typings ->
        let outcomes = check typings in
        List.iter (fun (_, s) -> merge_stats ~into:stats s) outcomes;
        scan_verdict t stats.typings_done (List.map fst outcomes)
  in
  stats.elapsed <- Unix.gettimeofday () -. t0;
  Alive_trace.Metrics.Table.publish table stats;
  { verdict; stats; cex_vc }

(* One typing after another, stopping after the first that decides the
   scan, so no later VC is generated. *)
let sequential ?budget ?share_memory_reads ?precise_pre t typings =
  let rec go = function
    | [] -> []
    | typing :: rest ->
        let ((outcome, _) as checked) =
          check_typing ?budget ?share_memory_reads ?precise_pre t typing
        in
        checked :: (if stops_scan outcome then [] else go rest)
  in
  go typings

let run ?widths ?precise_pre ?budget t =
  scan ~widths t (sequential ?budget ?precise_pre t)

let check ?widths ?share_memory_reads ?budget t =
  (scan ~widths t (sequential ?budget ?share_memory_reads t)).verdict

(* The walk without a solver: [f] sees each query of each feasible typing
   in scan order, with the typing and the query's existential variables. *)
let map_queries ?widths (t : Ast.transform) f =
  match feasible_typings ?widths t with
  | Error e -> Error (Format.asprintf "%a" Typing.pp_error e)
  | Ok typings ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | typing :: rest -> (
            match typing_vc t typing with
            | Error msg -> Error msg
            | Ok vc ->
                let exists = vc.src.undefs in
                go (List.map (f typing ~exists) (typing_queries vc) :: acc) rest)
      in
      go [] typings

let query_digests ?widths t =
  map_queries ?widths t (fun _ ~exists (_, _, formula) ->
      Alive_smt.Vc_cache.digest (Alive_smt.Vc_cache.canon ~exists formula))

type query_probe = {
  probe_at : string;
  probe_kind : string;
  probe_digest : string;
  probe_tier : tier;
}

let kind_slug = function
  | Counterexample.Not_defined -> "defined"
  | Counterexample.More_poison -> "poison"
  | Counterexample.Value_mismatch -> "value"

let probe_queries ?widths t =
  map_queries ?widths t (fun _ ~exists (at, kind, formula) ->
      let keyed = Alive_smt.Vc_cache.canon ~exists formula in
      let tier =
        if static_proved ~exists formula then Static
        else if not (Alive_smt.Vc_cache.enabled ()) then Smt
        else
          Option.fold ~none:Smt ~some:hit_tier (Alive_smt.Vc_cache.probe keyed)
      in
      {
        probe_at = at;
        probe_kind = kind_slug kind;
        probe_digest = Alive_smt.Vc_cache.digest keyed;
        probe_tier = tier;
      })

type static_summary = {
  static_typings : int;
  static_queries : int;
  static_discharged : int;
  static_complete : bool;
}

(* Run tier 0 over every query of every feasible typing, handing each
   statically proved query to [on_proved]. *)
let static_walk ?widths ~on_proved t =
  map_queries ?widths t (fun typing ~exists (at, kind, formula) ->
      let proved = static_proved ~exists formula in
      if proved then on_proved typing at kind ~exists formula;
      proved)
  |> Result.map (fun typings ->
         let proved = List.concat typings in
         let discharged = List.length (List.filter Fun.id proved) in
         {
           static_typings = List.length typings;
           static_queries = List.length proved;
           static_discharged = discharged;
           static_complete = proved <> [] && discharged = List.length proved;
         })

let static_report ?widths t =
  static_walk ?widths ~on_proved:(fun _ _ _ ~exists:_ _ -> ()) t

type static_recheck = {
  recheck_confirmed : int;
  recheck_unknown : int;
  recheck_refuted : string list;
}

let static_recheck_conflicts = 20_000

let static_check ?widths t =
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
  static_walk ?widths ~on_proved t
  |> Result.map (fun summary ->
         ( summary,
           {
             recheck_confirmed = !confirmed;
             recheck_unknown = !unknown;
             recheck_refuted = List.rev !refuted;
           } ))

let render_verdict t verdict =
  match verdict with
  | Valid { typings_checked } ->
      Printf.sprintf "Optimization %s is correct (%d typings checked)" t.Ast.name
        typings_checked
  | Invalid cex -> (
      (* Re-derive the VC for rendering. *)
      match typing_vc t cex.typing with
      | Ok vc -> Counterexample.render t vc cex
      | Error _ -> "ERROR: " ^ Counterexample.describe cex.kind)
  | Unknown u ->
      Printf.sprintf
        "Optimization %s could not be decided within budget: %s at %s"
        t.Ast.name
        (Solve.reason_to_string u.reason)
        u.at
  | Type_error e -> Format.asprintf "%a" Typing.pp_error e
  | Unsupported_feature msg -> "unsupported: " ^ msg
