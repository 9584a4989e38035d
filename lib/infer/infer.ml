(* The counterexample-guided inference loop: sample concrete examples,
   learn a separating conjunction of atoms, validate it with the full
   verifier, feed counterexample models back as negatives, repeat. *)

open Alive.Ast
module Typing = Alive.Typing
module Scoping = Alive.Scoping
module Vcgen = Alive.Vcgen
module Refine = Alive.Refine
module Counterexample = Alive.Counterexample
module T = Alive_smt.Term
module Solve = Alive_smt.Solve
module Model = Alive_smt.Model
module Trace = Alive_trace.Trace

(* Per-transform caps: CEGAR rounds (one validation each), wall seconds,
   concrete tuples drawn per sampled typing, and typings sampled for
   examples. *)
let max_rounds = 12
let max_wall_s = 60.0
let samples_per_typing = 64
let max_typings_sampled = 4

type example = { env : Typing.env; binds : Concrete.binds }

type outcome = {
  transform : string;
  inferred : pred option;
  verdict : Refine.verdict option;
  rounds : int;
  positives : int;
  negatives : int;
  atoms : int;
  validations : int;
  stats : Refine.stats;
  elapsed : float;
  note : string;
}

(* --- Example bookkeeping --- *)

let same_example a b =
  let norm e =
    List.sort (fun (x, _) (y, _) -> String.compare x y) e.binds
  in
  List.length a.binds = List.length b.binds
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Bitvec.equal v1 v2)
       (norm a) (norm b)

(* Evaluate an atom on an example. [None] means the atom is ill-typed on
   this example's typing (e.g. a cross-width bitwise combination): for a
   negative that counts as rejection — the atom's typing constraint removes
   the whole typing — while a positive demands a definite [true]. *)
let eval_atom ex atom =
  try Some (Concrete.eval_pred ex.env ~binds:ex.binds atom) with _ -> None

(* --- Sampling --- *)

let boundaries w =
  List.sort_uniq Bitvec.compare
    [
      Bitvec.zero w;
      Bitvec.one w;
      Bitvec.all_ones w;
      Bitvec.min_signed w;
      Bitvec.max_signed w;
      Bitvec.of_int ~width:w 2;
    ]

(* Deterministic LCG so inference is reproducible run to run. *)
let lcg_next s =
  Int64.add (Int64.mul s 6364136223846793005L) 1442695040888963407L

let lcg_seed name i =
  Int64.of_int (Hashtbl.hash (name, i) lxor ((i + 1) * 0x9e3779b9))

let rec cross = function
  | [] -> [ [] ]
  | vs :: rest ->
      let tails = cross rest in
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) vs

let sample_tuples ~name ~typing_index ~count names_widths =
  let k = List.length names_widths in
  let boundary_tuples =
    if k = 0 then []
    else if k <= 2 then cross (List.map (fun (_, w) -> boundaries w) names_widths)
    else
      (* Full cross products explode for three or more names; walk the
         boundary sets in lockstep instead and let the LCG fill the gaps. *)
      let bs = List.map (fun (_, w) -> Array.of_list (boundaries w)) names_widths in
      let depth = List.fold_left (fun a b -> max a (Array.length b)) 0 bs in
      List.init depth (fun i ->
          List.map (fun b -> b.(i mod Array.length b)) bs)
  in
  let random_tuples =
    let s = ref (lcg_seed name typing_index) in
    let n = max 0 (count - List.length boundary_tuples) in
    List.init n (fun _ ->
        List.map
          (fun (_, w) ->
            s := lcg_next !s;
            Bitvec.make ~width:w !s)
          names_widths)
  in
  boundary_tuples @ random_tuples

let widths_of_names env (info : Scoping.info) =
  List.map (fun n -> (n, Typing.width_of_value env n)) info.inputs
  @ List.map (fun n -> (n, Typing.width_of_const env n)) info.constants

let sample_examples (info : Scoping.info) bare typings =
  let positives = ref [] and negatives = ref [] in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  List.iteri
    (fun ti env ->
      match widths_of_names env info with
      | exception _ -> ()
      | names_widths -> (
          let tuples =
            sample_tuples ~name:bare.name ~typing_index:ti
              ~count:samples_per_typing names_widths
          in
          match tuples with
          | [] -> ()
          | first :: _ -> (
              (* One trial lowering decides executability for the typing. *)
              let binds_of tuple = List.combine (List.map fst names_widths) tuple in
              match Concrete.lower env ~binds:(binds_of first) info bare with
              | Error _ -> ()
              | Ok _ ->
                  List.iter
                    (fun tuple ->
                      let binds = binds_of tuple in
                      match Concrete.lower env ~binds info bare with
                      | Error _ -> ()
                      | Ok (src, tgt) -> (
                          let args =
                            List.map (fun n -> List.assoc n binds) info.inputs
                          in
                          match Concrete.classify ~src ~tgt args with
                          | Concrete.Pos ->
                              positives := { env; binds } :: !positives
                          | Concrete.Neg ->
                              negatives := { env; binds } :: !negatives
                          | Concrete.Skip -> ()))
                    tuples)))
    (take max_typings_sampled typings);
  (List.rev !positives, List.rev !negatives)

(* --- Counterexample harvesting --- *)

let example_of_cex (info : Scoping.info) (cex : Counterexample.t) =
  match widths_of_names cex.typing info with
  | exception _ -> None
  | names_widths ->
      let binds =
        List.map
          (fun (n, w) ->
            match Model.find cex.model n with
            | Some (T.Vbv b) -> (n, b)
            | _ -> (n, Bitvec.zero w))
          names_widths
      in
      Some { env = cex.typing; binds }

(* --- The greedy learner --- *)

let conj = function
  | [] -> Ptrue
  | a :: rest -> List.fold_left (fun acc p -> Pand (acc, p)) a rest

let rejects a ex =
  match eval_atom ex a with Some false | None -> true | Some true -> false

(* Full separation: a conjunction that accepts every positive and rejects
   every negative. Exists exactly when the sampled feasible region is
   expressible as a conjunction over the vocabulary. *)
let learn_full atoms positives negatives =
  let holds_on_all_positives a =
    List.for_all (fun ex -> eval_atom ex a = Some true) positives
  in
  let candidates = List.filter holds_on_all_positives atoms in
  let rec go chosen remaining =
    if remaining = [] then Some (List.rev chosen)
    else
      (* Earlier atoms win ties, so the vocabulary's weakest-first order
         biases the result towards weaker preconditions. *)
      let best =
        List.fold_left
          (fun acc a ->
            if List.exists (fun c -> c = a) chosen then acc
            else
              let k = List.length (List.filter (rejects a) remaining) in
              match acc with
              | Some (_, bk) when bk >= k -> acc
              | _ when k > 0 -> Some (a, k)
              | _ -> acc)
          None candidates
      in
      match best with
      | None -> None
      | Some (a, _) ->
          go (a :: chosen) (List.filter (fun ex -> not (rejects a ex)) remaining)
  in
  go [] negatives

(* Partial coverage: when the feasible region needs a disjunction the
   vocabulary cannot spell, settle for the sound conjunction that keeps the
   most positives (an Alive-Infer "partial precondition"). Greedy: each
   step must reject at least one outstanding negative; among those atoms,
   maximize kept positives, then rejected negatives, then vocabulary
   order. *)
let learn_partial atoms positives negatives =
  let rec go chosen kept remaining =
    if remaining = [] then Some (List.rev chosen)
    else
      let best =
        List.fold_left
          (fun acc a ->
            if List.exists (fun c -> c = a) chosen then acc
            else
              let k = List.length (List.filter (rejects a) remaining) in
              if k = 0 then acc
              else
                let p =
                  List.length
                    (List.filter (fun ex -> eval_atom ex a = Some true) kept)
                in
                match acc with
                | Some (_, bp, bk) when bp > p || (bp = p && bk >= k) -> acc
                | _ -> Some (a, p, k))
          None atoms
      in
      match best with
      | None -> None
      | Some (a, _, _) ->
          go (a :: chosen)
            (List.filter (fun ex -> eval_atom ex a = Some true) kept)
            (List.filter (fun ex -> not (rejects a ex)) remaining)
  in
  go [] positives negatives

let learn atoms positives negatives =
  match learn_full atoms positives negatives with
  | Some chosen -> Some (chosen, `Full)
  | None -> (
      match learn_partial atoms positives negatives with
      | Some chosen -> Some (chosen, `Partial)
      | None -> None)

(* --- The CEGAR loop --- *)

let debug = Sys.getenv_opt "ALIVE_INFER_DEBUG" <> None

let debug_pred name p =
  if debug then
    Format.eprintf "[infer] %s: %a@." name Alive.Ast.pp_pred p

let debug_example name tag ex =
  if debug then
    Format.eprintf "[infer] %s: %s {%s}@." name tag
      (String.concat "; "
         (List.map
            (fun (n, v) -> n ^ "=" ^ Bitvec.to_string_unsigned v)
            ex.binds))

let infer ?widths ?budget (t : transform) =
  Trace.with_span "infer" ~meta:[ ("transform", Trace.Str t.name) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let stats = Refine.empty_stats () in
  let validations = ref 0 in
  let bare = { t with pre = Ptrue } in
  let finish ?inferred ?verdict ?(rounds = 0) ?(positives = 0) ?(negatives = 0)
      ?(atoms = 0) note =
    {
      transform = t.name;
      inferred;
      verdict;
      rounds;
      positives;
      negatives;
      atoms;
      validations = !validations;
      stats;
      elapsed = Unix.gettimeofday () -. t0;
      note;
    }
  in
  let validate pre =
    incr validations;
    let r =
      Trace.with_span "infer.validate" @@ fun () ->
      (* precise_pre: a learned [Pnot (Pcall _)] must mean the fact is
         false, matching Concrete.eval_pred and compare_preds. *)
      Refine.run ?widths ~precise_pre:true ?budget { bare with pre }
    in
    Refine.merge_stats ~into:stats r.stats;
    r
  in
  if Alive.Ast.has_memory_ops t then
    finish "memory transformations are outside the inference fragment"
  else
    match Scoping.check bare with
    | Error e -> finish ("ill-scoped transformation: " ^ e)
    | Ok info -> (
        let r0 = validate Ptrue in
        match r0.verdict with
        | Refine.Valid _ ->
            (* Unconditionally correct: the weakest precondition is true
               (any hand-written one is vacuous). *)
            finish ~inferred:Ptrue ~verdict:r0.verdict ""
        | Refine.Type_error e ->
            finish (Format.asprintf "%a" Typing.pp_error e)
        | Refine.Unsupported_feature s -> finish ("unsupported: " ^ s)
        | Refine.Unknown u ->
            finish ~verdict:r0.verdict
              ("unconditional check undecided: " ^ Solve.reason_to_string u.reason)
        | Refine.Invalid cex0 ->
            let atoms = Atoms.vocabulary t info in
            (* [bare] was just refuted, so it has feasible typings. *)
            let typings =
              Result.value ~default:[] (Refine.feasible_typings ?widths bare)
            in
            let positives, sampled_negatives =
              Trace.with_span "infer.sample" @@ fun () ->
              sample_examples info bare typings
            in
            let positives = ref positives in
            let negatives =
              ref
                (match example_of_cex info cex0 with
                | Some ex -> ex :: sampled_negatives
                | None -> sampled_negatives)
            in
            let tried = Hashtbl.create 16 in
            let add_negative ex =
              positives := List.filter (fun p -> not (same_example p ex)) !positives;
              negatives := ex :: !negatives
            in
            let counts () = (List.length !positives, List.length !negatives) in
            let fail ?verdict ~rounds note =
              let p, n = counts () in
              finish ?verdict ~rounds ~positives:p ~negatives:n
                ~atoms:(List.length atoms) note
            in
            let minimize chosen =
              (* Drop redundant conjuncts, re-validating each removal. *)
              let rec go kept = function
                | [] -> kept
                | a :: rest -> (
                    match kept @ rest with
                    | [] -> go (kept @ [ a ]) rest
                    | smaller ->
                        if Refine.is_valid_verdict (validate (conj smaller)).verdict
                        then go kept rest
                        else go (kept @ [ a ]) rest)
              in
              if List.length chosen <= 1 then chosen else go [] chosen
            in
            let rec loop round =
              if round >= max_rounds then
                fail ~rounds:round "round limit reached"
              else if Unix.gettimeofday () -. t0 > max_wall_s then
                fail ~rounds:round "wall budget exhausted"
              else
                let learned =
                  Trace.with_span "infer.learn" @@ fun () ->
                  learn atoms !positives !negatives
                in
                match learned with
                | None ->
                    fail ~rounds:round
                      "no conjunction over the atom vocabulary separates the \
                       examples"
                | Some (chosen, coverage) -> (
                    let candidate = conj chosen in
                    debug_pred t.name candidate;
                    if Hashtbl.mem tried candidate then
                      fail ~rounds:round
                        "learner repeated a refuted candidate (concrete/SMT \
                         semantics disagree)"
                    else begin
                      Hashtbl.replace tried candidate ();
                      let r = validate candidate in
                      match r.verdict with
                      | Refine.Valid _ ->
                          let final = conj (minimize chosen) in
                          let p, n = counts () in
                          finish ~inferred:final ~verdict:r.verdict
                            ~rounds:(round + 1) ~positives:p ~negatives:n
                            ~atoms:(List.length atoms)
                            (match coverage with
                            | `Full -> ""
                            | `Partial ->
                                "partial coverage: some sampled positives \
                                 fall outside the inferred precondition")
                      | Refine.Invalid cex -> (
                          match example_of_cex info cex with
                          | Some ex ->
                              debug_example t.name "cex" ex;
                              add_negative ex;
                              loop (round + 1)
                          | None ->
                              fail ~verdict:r.verdict ~rounds:(round + 1)
                                "could not harvest a counterexample model")
                      | Refine.Unknown u ->
                          fail ~verdict:r.verdict ~rounds:(round + 1)
                            ("validation undecided: "
                            ^ Solve.reason_to_string u.reason)
                      | Refine.Type_error _ ->
                          fail ~verdict:r.verdict ~rounds:(round + 1)
                            "candidate made every typing infeasible"
                      | Refine.Unsupported_feature s ->
                          fail ~verdict:r.verdict ~rounds:(round + 1)
                            ("unsupported: " ^ s)
                    end)
            in
            loop 0)

(* --- Precondition comparison --- *)

type cmp = Equal | Weaker | Stronger | Incomparable | Unknown_cmp

let cmp_name = function
  | Equal -> "equal"
  | Weaker -> "weaker"
  | Stronger -> "stronger"
  | Incomparable -> "incomparable"
  | Unknown_cmp -> "unknown"

let compare_preds ?widths ?budget (t : transform) hand inferred =
  match Refine.feasible_typings ?widths t with
  | Error _ -> Unknown_cmp
  | Ok envs -> (
      try
        let dirs =
          List.map
            (fun env ->
              let vc =
                match Refine.typing_vc t env with
                | Ok vc -> vc
                | Error _ -> raise Exit
              in
              let lookup name =
                match List.assoc_opt name vc.Vcgen.src.Vcgen.defs with
                | Some iv -> iv.Semantics.value
                | None ->
                    Vcgen.input_var name (Typing.width_of_value env name)
              in
              let h = Vcgen.pred_term_precise env ~lookup hand in
              let i = Vcgen.pred_term_precise env ~lookup inferred in
              let dir a b =
                match Solve.is_valid ?budget (T.implies a b) with
                | `Valid -> Some true
                | `Invalid _ -> Some false
                | `Unknown _ -> None
              in
              (dir h i, dir i h))
            envs
        in
        if List.exists (fun (a, b) -> a = None || b = None) dirs then Unknown_cmp
        else
          let h_implies_i = List.for_all (fun (a, _) -> a = Some true) dirs in
          let i_implies_h = List.for_all (fun (_, b) -> b = Some true) dirs in
          match (h_implies_i, i_implies_h) with
          | true, true -> Equal
          | true, false -> Weaker
          | false, true -> Stronger
          | false, false -> Incomparable
      with Exit | Invalid_argument _ | Not_found -> Unknown_cmp)
