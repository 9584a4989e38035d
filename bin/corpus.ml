(* alive corpus: verify every corpus entry against its expected verdict,
   re-derive the hand-written preconditions, or check the static tier
   query by query.

   [alive corpus verify] reaches each entry's verdict on one of three
   paths, which share the classification and the per-entry line below:
   - in-process (default): Engine.verify_corpus on a local domain pool,
     with --store DIR the persistent verdict store installed under the
     cache, so verdicts survive across runs;
   - --via SOCKET: a thin client of an `alive serve` daemon, which owns
     the pool and the store;
   - store replay: with --store and --changed-since, an entry whose
     canonical query digests all have stored verdicts is not solved, its
     stored outcome is replayed.

   Exit codes: 0 every entry matched its expected verdict; 1 at least one
   mismatch (a definite wrong answer); 2 no mismatches but some entries
   were undecided (budget exhausted, crashed), so the run proved less than
   the full corpus. *)

open Cmdliner
open Cli
module Entry = Alive_suite.Entry
module Infer = Alive_infer.Infer
module Store = Alive_service.Store
module Client = Alive_service.Client

let category_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"NAME"
        ~doc:
          "Restrict to one InstCombine category, the File column of Table 3 \
           (e.g. AddSub).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ]
        ~doc:
          "Print only mismatched, undecided and slow entries, and the \
           summary.")

let select category =
  let entries =
    List.filter
      (fun (e : Entry.t) ->
        Option.fold ~none:true ~some:(String.equal e.file) category)
      Alive_suite.Registry.all
  in
  if entries = [] then Printf.eprintf "no corpus entries selected\n";
  entries

(* --- One entry's verdict, and its line ---

   [verdict] is a report name ("valid", "invalid", "type-error",
   "unsupported", "unknown:<reason>", "crash", or "error" when the daemon
   could not be asked); [detail] is what the entry's line shows after a
   mismatch or an undecided tag. *)

type checked = { verdict : string; detail : string; elapsed : float }
type tally = { mutable mismatches : int; mutable undecided : int }

(* Check the verdict against the entry's expected tag, count it, and print
   the entry's line: always for a mismatch, an undecided or a slow entry,
   otherwise unless [quiet]. *)
let record ~quiet tally (e : Entry.t) r =
  let line msg = Printf.printf "%-55s %6.2fs %s\n%!" e.name r.elapsed msg in
  let undecided tag =
    tally.undecided <- tally.undecided + 1;
    line (tag ^ ": " ^ r.detail)
  in
  if r.verdict = "crash" then undecided "CRASH"
  else if r.verdict = "error" then undecided "ERROR"
  else if String.starts_with ~prefix:"unknown" r.verdict then
    undecided "UNKNOWN"
  else if (r.verdict = "valid") <> (e.expected = Entry.Expect_valid) then begin
    tally.mismatches <- tally.mismatches + 1;
    line ("MISMATCH: " ^ r.detail)
  end
  else if r.elapsed > 1.0 then line "ok (slow)"
  else if not quiet then line "ok"

let of_task (r : Engine.task_result) =
  let detail =
    match r.outcome with
    | Error e -> e.message
    | Ok { verdict = Alive.Refine.Unknown u; _ } ->
        Format.asprintf "%a at %s" Alive_smt.Solve.pp_reason u.reason u.at
    | Ok res -> Format.asprintf "%a" Alive.Refine.pp_verdict res.verdict
  in
  { verdict = Engine.verdict_name r; detail; elapsed = r.elapsed }

(* An entry whose refinement queries all have stored verdicts needs no
   solving: its stored outcome is replayed. *)
let stored_verdict store widths (e : Entry.t) =
  match Alive.Refine.query_digests ?widths (Entry.parse e) with
  | exception _ -> None
  | digests ->
      Option.map
        (function `Valid -> "valid" | `Invalid -> "invalid")
        (Store.replay store digests)

(* --via: one daemon connection per worker thread, entries pulled from a
   shared index; the daemon does all the solving (on its own domain pool,
   through its own verdict store) and this side only marshals and
   classifies. *)
let run_via ~socket ~jobs ~timeout ~conflict_limit ~widths ~report entries =
  let timeout = if timeout > 0.0 then Some timeout else None in
  let conflict_limit =
    if conflict_limit > 0 then Some conflict_limit else None
  in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let results = Array.make n ("", "", 0.0) in
  let lock = Mutex.create () in
  let next = Atomic.make 0 in
  let worker () =
    let client = Result.to_option (Client.connect socket) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let (e : Entry.t) = arr.(i) in
        let q0 = Unix.gettimeofday () in
        let resp =
          match client with
          | None -> Error ("cannot connect to daemon at " ^ socket)
          | Some c ->
              (* One request id per corpus entry, so every daemon-side
                 span and log line of this entry's verification is
                 greppable by "cc-<index>". *)
              Client.verify c
                ~rid:(Printf.sprintf "cc-%d" i)
                ?widths:(widths e) ?timeout ?conflict_limit ~text:e.text ()
        in
        let elapsed = Unix.gettimeofday () -. q0 in
        let verdict, detail =
          match resp with
          | Error msg -> ("error", msg)
          | Ok (Json.List (_ :: _ as items)) ->
              let vs =
                List.map
                  (fun j ->
                    Option.value ~default:"error"
                      (Option.bind (Json.member "verdict" j) Json.to_str))
                  items
              in
              (* An entry's text can hold several transforms; a definite
                 failure outranks an undecided one, which outranks valid,
                 as in the local scan. *)
              let v =
                match
                  List.find_opt
                    (fun v ->
                      v = "invalid" || v = "type-error" || v = "unsupported")
                    vs
                with
                | Some v -> v
                | None ->
                    Option.value ~default:"valid"
                      (List.find_opt (fun v -> v <> "valid") vs)
              in
              (v, v)
          | Ok _ -> ("error", "malformed verify response")
        in
        results.(i) <- (e.name, verdict, elapsed);
        Mutex.protect lock (fun () -> report e { verdict; detail; elapsed });
        loop ()
      end
    in
    loop ();
    Option.iter Client.close client
  in
  let t0 = Unix.gettimeofday () in
  let jobs = max 1 (min jobs (max 1 n)) in
  let threads = Array.init jobs (fun _ -> Thread.create worker ()) in
  Array.iter Thread.join threads;
  (Array.to_list results, Unix.gettimeofday () -. t0, jobs)

(* In-process: the engine's domain pool, through the verdict store when
   one is installed. Returns the verdicts, wall, jobs and the --json
   report. *)
let run_local ~jobs ~budget ~stats ~widths ~report entries =
  let by_name = Hashtbl.create 256 in
  List.iter (fun (e : Entry.t) -> Hashtbl.replace by_name e.name e) entries;
  let r =
    Engine.verify_corpus ~jobs ?budget
      ~on_result:(fun t -> report (Hashtbl.find by_name t.name) (of_task t))
      (List.map
         (fun (e : Entry.t) ->
           {
             Engine.task_name = e.name;
             widths = widths e;
             prepare = (fun () -> Entry.parse e);
           })
         entries)
  in
  if stats then Engine.print_table r;
  ( List.map
      (fun (t : Engine.task_result) ->
        (t.name, Engine.verdict_name t, t.elapsed))
      r.results,
    r.wall,
    r.jobs,
    Engine.report_json r )

(* The --json report of a --via run. *)
let via_report ~socket ~skipped tally results wall counters =
  Json.Obj
    [
      ("mode", Json.String "via");
      ("socket", Json.String socket);
      ("skipped", Json.Int skipped);
      ( "entries",
        Json.List
          (List.map
             (fun (name, verdict, elapsed) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("verdict", Json.String verdict);
                   ("elapsed_s", Json.Float elapsed);
                 ])
             results) );
      ("mismatches", Json.Int tally.mismatches);
      ("undecided", Json.Int tally.undecided);
      ( "errors",
        Json.Int
          (List.length (List.filter (fun (_, v, _) -> v = "error") results)) );
      ("wall_s", Json.Float wall);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Alive_trace.Ledger.number v)) counters)
      );
    ]

(* One request to the daemon on a fresh connection; [None] when it cannot
   be reached or the request fails. *)
let ask socket request =
  match Client.connect socket with
  | Error _ -> None
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Result.to_option (request c)

(* The daemon's registry, scraped over its socket. *)
let scrape socket =
  ask socket (fun c ->
      Result.map Alive_trace.Metrics.snapshot_of_json (Client.metrics c))

(* The non-zero counters of a registry change, as [name=value] pairs. *)
let render_counters counters =
  List.filter_map
    (fun (k, v) ->
      if v = 0.0 then None
      else if Float.is_integer v then Some (Printf.sprintf "%s=%.0f" k v)
      else Some (Printf.sprintf "%s=%.3f" k v))
    counters
  |> String.concat " "

let histogram names =
  List.sort_uniq compare names
  |> List.map (fun n -> (n, List.length (List.filter (String.equal n) names)))

let verify category jobs timeout conflict_limit widths quiet stats json trace
    metrics metrics_json ledger no_cache no_aig dump_cnf dump_aig via
    store_dir changed_since =
  (* With --via the daemon owns the writable store; this process only needs
     digest lookups, which a read-only replay provides even while the
     daemon holds the write lock. *)
  let open_store dir =
    Result.map Option.some (Store.open_store ~readonly:(via <> None) dir)
  in
  match select category with
  | [] -> 1
  | _ when changed_since <> None && store_dir = None ->
      Printf.eprintf "--changed-since requires --store DIR\n";
      1
  | entries -> (
      match Option.fold ~none:(Ok None) ~some:open_store store_dir with
      | Error e ->
          Printf.eprintf "store: %s\n" e;
          1
      | Ok store ->
          setup_observability ~trace ~collapsed:None
            ~metrics:(metrics || metrics_json <> None || ledger <> None);
          setup_solve_path ~no_cache ~no_aig ~dump_cnf ~dump_aig;
          if via = None then
            Option.iter
              (fun s ->
                Store.set_context
                  ~budget:
                    (String.concat " "
                       ((if timeout > 0.0 then
                           [ Printf.sprintf "timeout=%gs" timeout ]
                         else [])
                       @
                       if conflict_limit > 0 then
                         [ Printf.sprintf "conflicts=%d" conflict_limit ]
                       else []))
                  s;
                Store.install_backing s)
              store;
          (* --widths applies only to entries without an explicit cap: a
             capped entry's comment justifies its cap (division circuits),
             so a width sweep must not blow it open. *)
          let widths_of (e : Entry.t) =
            match e.widths with Some w -> Some w | None -> widths
          in
          let tally = { mismatches = 0; undecided = 0 } in
          let report = record ~quiet tally in
          let skipped, entries =
            match (changed_since, store) with
            | Some _, Some s ->
                List.partition_map
                  (fun (e : Entry.t) ->
                    match stored_verdict s (widths_of e) e with
                    | Some v -> Either.Left (e, v)
                    | None -> Either.Right e)
                  entries
            | _ -> ([], entries)
          in
          List.iter
            (fun (e, v) ->
              report e
                { verdict = v; detail = v ^ " (store replay)"; elapsed = 0.0 })
            skipped;
          (* Summary lines and ledger records report the registry's change
             over the run: this process's own registry, or the daemon's
             with --via. *)
          let snapshot () =
            match via with
            | None -> Some (Alive_trace.Metrics.snapshot ())
            | Some socket -> scrape socket
          in
          let before = snapshot () in
          let jobs = resolve_jobs jobs in
          (* Each path returns its verdicts, wall, jobs and how to write
             its --json report given the run's counters. *)
          let results, wall, jobs, report_json =
            match via with
            | Some socket ->
                let results, wall, jobs =
                  run_via ~socket ~jobs ~timeout ~conflict_limit
                    ~widths:widths_of ~report entries
                in
                ( results,
                  wall,
                  jobs,
                  via_report ~socket ~skipped:(List.length skipped) tally
                    results wall )
            | None ->
                let results, wall, jobs, json =
                  run_local ~jobs
                    ~budget:(budget_of ~timeout ~conflict_limit)
                    ~stats ~widths:widths_of ~report entries
                in
                (results, wall, jobs, fun _ -> json)
          in
          let before, after =
            match (before, snapshot ()) with
            | Some b, Some a -> (b, a)
            | _ ->
                Printf.eprintf "warning: could not read the daemon's metrics\n";
                let empty =
                  Alive_trace.Metrics.snapshot_of_json (Json.Obj [])
                in
                (empty, empty)
          in
          let counters = Alive_trace.Ledger.counters_since before after in
          Printf.printf
            "done: %d entries%s, %d mismatches, %d undecided; wall %.2fs with \
             %d %s; %s\n"
            (List.length results)
            (Option.fold ~none:""
               ~some:(fun rev ->
                 Printf.sprintf " (since %s: %d skipped, %d re-verified)" rev
                   (List.length skipped) (List.length entries))
               changed_since)
            tally.mismatches tally.undecided wall jobs
            (match via with
            | None -> "job(s)"
            | Some socket -> "client job(s) via " ^ socket)
            (render_counters counters);
          Option.iter
            (fun path ->
              Json.to_file path (report_json counters);
              Printf.printf "report written to %s\n" path)
            json;
          Option.iter
            (fun path ->
              (* Verdict names carry the unknown reason ("unknown:timeout",
                 ...), so regressions in decidability are visible across
                 runs too. *)
              let label =
                (if via = None then "corpus_check" else "corpus_check.via")
                ^ Option.fold ~none:"" ~some:(fun c -> ":" ^ c) category
              in
              Alive_trace.Ledger.append ~path
                (Alive_trace.Ledger.make ~label ~jobs
                   ~tasks:(List.length results)
                   ~budget:{ timeout_s = timeout; conflict_limit }
                   ~wall_s:wall
                   ~verdicts:(histogram (List.map (fun (_, v, _) -> v) results))
                   before after);
              Printf.printf "ledger record appended to %s\n" path)
            ledger;
          emit_observability ~trace ~collapsed:None ~metrics;
          Option.iter
            (fun path ->
              Json.to_file path (Alive_trace.Metrics.to_json ());
              Printf.printf "metrics written to %s\n" path)
            metrics_json;
          Option.iter
            (fun s ->
              let st = Store.stats s in
              if via = None then begin
                Store.remove_backing ();
                if st.appended > 0 || st.segments > 1 then Store.compact s
              end;
              let print =
                Printf.printf
                  "store: %d live verdict(s) in %d segment(s), %d appended \
                   %s\n"
              in
              (if not quiet then
                 match via with
                 | None -> print st.live st.segments st.appended "this run"
                 | Some socket ->
                     (* The daemon owns the store this run wrote to; the
                        handle here is a read-only copy replayed before
                        it. *)
                     Option.iter
                       (fun j ->
                         let n k =
                           Option.value ~default:0
                             (Option.bind (Json.member k j) Json.to_int)
                         in
                         print (n "live") (n "segments") (n "appended")
                           "since the daemon started")
                       (ask socket Client.store_stats));
              Store.close s)
            store;
          if tally.mismatches > 0 then 1
          else if tally.undecided > 0 then 2
          else 0)

let verify_cmd =
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the metrics registry snapshot as JSON to $(docv).")
  in
  let via =
    Arg.(
      value
      & opt (some string) None
      & info [ "via" ] ~docv:"SOCKET"
          ~doc:
            "Send entries to the $(b,alive serve) daemon at $(docv) instead \
             of solving in-process (one client connection per job).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent verdict store: warm the solve path from $(docv) and \
             write every new verdict through (opened read-only with \
             $(b,--via), since the daemon owns its own store).")
  in
  let changed_since =
    Arg.(
      value
      & opt (some string) None
      & info [ "changed-since" ] ~docv:"REV"
          ~doc:
            "Incremental mode (needs $(b,--store)): skip entries whose \
             canonical query digests all have stored verdicts, replaying the \
             stored outcome; $(docv) labels the baseline in the summary.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify every corpus entry (or one category) against its expected \
          verdict. $(b,--widths) applies only to entries without a width \
          cap; a capped entry keeps its cap."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "an entry's verdict contradicts its expected one, no entry is \
               selected, or the store cannot be used."
         :: Cmd.Exit.info 2
              ~doc:"no mismatch, but some entries were undecided or crashed."
         :: Cmd.Exit.defaults))
    Term.(
      const verify $ category_arg $ jobs_arg $ timeout_arg $ conflict_limit_arg
      $ widths_arg $ quiet_arg $ stats_arg $ json_arg $ trace_arg $ metrics_arg
      $ metrics_json $ ledger_arg $ no_cache_arg $ no_aig_arg $ dump_cnf_arg
      $ dump_aig_arg $ via $ store $ changed_since)

(* --- infer-pre: run the Alive-Infer loop on every corpus entry that
   carries a hand-written precondition and compare the re-derived predicate
   against it. The hand-written precondition is the reference:
   [equal]/[weaker] is a success, [stronger]/[incomparable] means the
   learner picked a sound but different region, and [failed] carries the
   inference note. --- *)

let infer_pre category jobs timeout conflict_limit quiet json limit min_ok =
  let eligible =
    List.filter_map
      (fun (e : Entry.t) ->
        match e.expected with
        | Entry.Expect_invalid -> None
        | Entry.Expect_valid -> (
            match Entry.parse e with
            | t
              when t.Alive.Ast.pre <> Alive.Ast.Ptrue
                   && not (Alive.Ast.has_memory_ops t) ->
                Some (e, t)
            | _ | (exception _) -> None))
      (select category)
  in
  let eligible =
    if limit > 0 then List.filteri (fun i _ -> i < limit) eligible
    else eligible
  in
  if eligible = [] then begin
    Printf.eprintf
      "no eligible entries (expected-valid, register-only, non-trivial \
       precondition)\n";
    1
  end
  else
    let jobs = resolve_jobs jobs in
    let budget = infer_budget ~timeout ~conflict_limit in
    let status (out : (Infer.outcome * _) Engine.outcome) =
      match out.result with
      | Error _ -> "crash"
      | Ok ({ inferred = Some _; _ }, Some c) -> Infer.cmp_name c
      | Ok _ -> "failed"
    in
    let as_infer (out : (Infer.outcome * _) Engine.outcome) =
      { out with result = Result.map fst out.result }
    in
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Engine.map ~jobs
        ~on_outcome:(fun out ->
          let status = status out in
          if (not quiet) || status <> "equal" then
            print_infer_outcome ~status (as_infer out))
        ~label:(fun ((e : Entry.t), _) -> e.name)
        (fun ((e : Entry.t), t) ->
          let o = Infer.infer ?widths:e.widths ~budget t in
          ( o,
            Option.map
              (Infer.compare_preds ?widths:e.widths ~budget t t.Alive.Ast.pre)
              o.inferred ))
        eligible
    in
    let wall = Unix.gettimeofday () -. t0 in
    let statuses = List.map status outcomes in
    let count s = List.length (List.filter (String.equal s) statuses) in
    let ok = count "equal" + count "weaker" in
    let fold f init =
      List.fold_left
        (fun acc (out : _ Engine.outcome) ->
          match out.result with Ok (o, _) -> f acc o | Error _ -> acc)
        init outcomes
    in
    let infer_s = fold (fun acc o -> acc +. o.Infer.elapsed) 0.0 in
    Printf.printf
      "infer-pre: %d entries, %d equal, %d weaker, %d stronger, %d \
       incomparable, %d unknown-cmp, %d failed, %d crashed; wall %.2fs with \
       %d job(s), %d queries, %d validations\n"
      (List.length outcomes) (count "equal") (count "weaker")
      (count "stronger") (count "incomparable") (count "unknown")
      (count "failed") (count "crash") wall jobs
      (fold (fun acc o -> acc + o.Infer.stats.queries) 0)
      (fold (fun acc o -> acc + o.Infer.validations) 0);
    Option.iter
      (fun path ->
        write_infer_report path
          ~extra:
            [
              ("equal_or_weaker", Json.Int ok);
              ("min_ok", Json.Int min_ok);
              ("wall_s", Json.Float wall);
              ("infer_s", Json.Float infer_s);
            ]
          (List.map2
             (fun ((e : Entry.t), (t : Alive.Ast.transform))
                  (out : _ Engine.outcome) ->
               Json.Obj
                 ([
                    ("name", Json.String e.name);
                    ("file", Json.String e.file);
                    ("hand_pre", Json.String (render_pred t.pre));
                    ("elapsed_s", Json.Float out.elapsed);
                  ]
                 @ infer_outcome_fields ~status:(status out) (as_infer out)))
             eligible outcomes))
      json;
    if ok >= min min_ok (List.length outcomes) then 0 else 1

let infer_pre_cmd =
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Use only the first $(docv) eligible entries (0 = all).")
  in
  let min_ok =
    Arg.(
      value & opt int 10
      & info [ "min-ok" ] ~docv:"N"
          ~doc:
            "Exit 0 only if at least $(docv) entries (or all of them, if \
             fewer) re-derive an equal-or-weaker precondition (default 10).")
  in
  Cmd.v
    (Cmd.info "infer-pre"
       ~doc:
         "Re-derive each hand-written precondition of the corpus by \
          counterexample-guided inference and compare the two (equal, \
          weaker, stronger, incomparable). An absent $(b,--timeout) means 10 \
          seconds per query."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "too few equal-or-weaker results (see $(b,--min-ok)), or no \
               eligible entry."
         :: Cmd.Exit.defaults))
    Term.(
      const infer_pre $ category_arg $ jobs_arg $ timeout_arg
      $ conflict_limit_arg $ quiet_arg $ json_arg $ limit $ min_ok)

(* --- static-report: tier-0 coverage, checked query by query ---

   Every query tier 0 proves is re-solved by the SAT solver under a fixed
   conflict budget, past the verdict cache. A model is a soundness bug in
   the static prover and fails the run; a query the budget cannot decide
   is counted per entry and printed, never dropped. An exception from the
   re-solve (e.g. [Solve.Model_mismatch], a bug in lowering, the AIG or
   the CNF) is recorded in that entry's row and fails the run too. *)

let static_report category path =
  match select category with
  | [] -> 1
  | entries ->
      let t0 = Unix.gettimeofday () in
      let rows = ref [] in
      let suites : (string, int * int * int) Hashtbl.t = Hashtbl.create 16 in
      let total = ref 0 and complete = ref 0 and unsound = ref 0 in
      let confirmed = ref 0 and unknown = ref 0 and refuted = ref 0 in
      let crashed = ref 0 in
      List.iter
        (fun (e : Entry.t) ->
          incr total;
          let crash = ref false in
          let summary =
            match Entry.parse e with
            | exception exn -> Error (Printexc.to_string exn)
            | tr -> (
                match Alive.Refine.static_check ?widths:e.widths tr with
                | r -> r
                | exception exn ->
                    let m = Printexc.to_string exn in
                    crash := true;
                    incr crashed;
                    Printf.eprintf "static-report: CRASH: %s (%s): %s\n" e.name
                      e.file m;
                    Error m)
          in
          let typ, q, disch, comp, (rc : Alive.Refine.static_recheck), err =
            let none =
              { Alive.Refine.recheck_confirmed = 0; recheck_unknown = 0;
                recheck_refuted = [] }
            in
            match summary with
            | Ok (s, rc) ->
                ( s.Alive.Refine.static_typings,
                  s.static_queries,
                  s.static_discharged,
                  s.static_complete,
                  rc,
                  None )
            | Error m -> (0, 0, 0, false, none, Some m)
          in
          if comp then incr complete;
          (* A statically proved expected-invalid entry is a soundness bug in
             the prover, not a coverage win; fail loudly. *)
          if comp && e.expected = Entry.Expect_invalid then begin
            incr unsound;
            Printf.eprintf
              "static-report: UNSOUND: %s (%s) is expected-invalid but the \
               static tier proved it\n"
              e.name e.file
          end;
          confirmed := !confirmed + rc.recheck_confirmed;
          unknown := !unknown + rc.recheck_unknown;
          refuted := !refuted + List.length rc.recheck_refuted;
          List.iter
            (fun where ->
              Printf.eprintf
                "static-report: REFUTED: %s (%s): tier 0 proved %s, the solver \
                 found a model\n"
                e.name e.file where)
            rc.recheck_refuted;
          if rc.recheck_unknown > 0 then
            Printf.printf "  unknown on re-solve: %s (%s) %d\n" e.name e.file
              rc.recheck_unknown;
          let en, pr, un =
            match Hashtbl.find_opt suites e.file with
            | Some p -> p
            | None -> (0, 0, 0)
          in
          Hashtbl.replace suites e.file
            (en + 1, (if comp then pr + 1 else pr), un + rc.recheck_unknown);
          rows :=
            Json.Obj
              ([
                 ("name", Json.String e.name);
                 ("file", Json.String e.file);
                 ("typings", Json.Int typ);
                 ("queries", Json.Int q);
                 ("discharged", Json.Int disch);
                 ("complete", Json.Bool comp);
                 ("confirmed", Json.Int rc.recheck_confirmed);
                 ("unknown", Json.Int rc.recheck_unknown);
                 ( "refuted",
                   Json.List
                     (List.map (fun w -> Json.String w) rc.recheck_refuted) );
               ]
              @ (match err with
                | None -> []
                | Some m -> [ ("error", Json.String m) ])
              @ if !crash then [ ("crashed", Json.Bool true) ] else [])
            :: !rows)
        entries;
      let wall = Unix.gettimeofday () -. t0 in
      let by_suite =
        Hashtbl.fold
          (fun file (en, pr, un) acc -> (file, en, pr, un) :: acc)
          suites []
        |> List.sort compare
      in
      Json.to_file path
        (Json.Obj
           [
             ("schema_version", Json.Int 2);
             ("entries", Json.Int !total);
             ("complete", Json.Int !complete);
             ("unsound", Json.Int !unsound);
             ( "recheck_conflicts",
               Json.Int Alive.Refine.static_recheck_conflicts );
             ("confirmed", Json.Int !confirmed);
             ("unknown", Json.Int !unknown);
             ("refuted", Json.Int !refuted);
             ("crashed", Json.Int !crashed);
             ("wall_s", Json.Float wall);
             ( "suites",
               Json.List
                 (List.map
                    (fun (file, en, pr, un) ->
                      Json.Obj
                        [
                          ("file", Json.String file);
                          ("entries", Json.Int en);
                          ("complete", Json.Int pr);
                          ("unknown", Json.Int un);
                        ])
                    by_suite) );
             ("rows", Json.List (List.rev !rows));
           ]);
      Printf.printf "  %-16s %7s  %s\n" "suite" "proved" "unknown on re-solve";
      List.iter
        (fun (file, en, pr, un) ->
          Printf.printf "  %-16s %3d/%3d  %d\n" file pr en un)
        by_suite;
      Printf.printf
        "static-report: %d/%d entries fully discharged by tier 0; %d proved \
         queries re-solved (%d conflicts each): %d confirmed, %d refuted, %d \
         unknown; %d entries crashed; %.2fs -> %s\n%!"
        !complete !total
        (!confirmed + !refuted + !unknown)
        Alive.Refine.static_recheck_conflicts !confirmed !refuted !unknown
        !crashed wall path;
      if !unsound > 0 || !refuted > 0 || !crashed > 0 then 1 else 0

let static_report_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "static-report"
       ~doc:
         (Printf.sprintf
            "Run the tier-0 static prover over the corpus entries, re-solve \
             every query it proves by SAT under a fixed %d-conflict budget, \
             and write a JSON report with a per-suite breakdown to FILE."
            Alive.Refine.static_recheck_conflicts)
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "a re-solve found a model or raised, tier 0 proved an \
               expected-invalid entry, or no entry is selected."
         :: Cmd.Exit.defaults))
    Term.(const static_report $ category_arg $ path)

let cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Run the built-in corpus: verify it against the expected verdicts, \
          re-derive its hand-written preconditions, or report the static \
          tier's coverage.")
    [ verify_cmd; infer_pre_cmd; static_report_cmd ]
