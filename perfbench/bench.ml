(* The repository benchmark: four workloads over the library's public API.

   One run measures one workload for a fixed time and prints one JSON line;
   perfbench/run.py builds this executable, runs it and checks that line.
   An untraced run (--trace 0) reports the end-to-end metrics. A traced run
   (--trace 1) reports per-layer metrics, all taken from outside the
   library: the spans the library already records, spans around the public
   calls made here, and probe calls to a layer's own public functions made
   after the real call, so they cannot warm it. README.md in this
   directory lists the workloads, why each was chosen, and every metric. *)

module Json = Alive_trace.Json
module Trace = Alive_trace.Trace
module Metrics = Alive_trace.Metrics
module Engine = Alive_engine.Engine
module Entry = Alive_suite.Entry
module Registry = Alive_suite.Registry
module Daemon = Alive_service.Daemon
module Client = Alive_service.Client
module Store = Alive_service.Store
module Stats = Perfbench.Stats
module Oracle = Perfbench.Oracle
module Attrib = Perfbench.Attrib

let now = Alive_trace.Clock.now

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  work_dir : string;
  cold_store : string;
}

(* --- The run's result --- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []
let errors = ref []
let metrics = ref []
let counts = ref []
let info = ref []

let metric name unit v = metrics := (name, unit, v) :: !metrics

let op_failed msg =
  if List.length !failures < 20 then failures := msg :: !failures

(* A benchmark error (count drift, a broken identity) makes the run
   incorrect even when every operation succeeded. *)
let bench_error msg =
  prerr_endline ("perfbench: " ^ msg);
  errors := msg :: !errors

let add_tally (t : Stats.tally) =
  attempted := !attempted + t.attempted;
  failed := !failed + t.failed

let int_counts l = List.map (fun (k, v) -> (k, Json.Int v)) l

let check_same what reference others =
  List.iteri
    (fun i c ->
      if c <> reference then
        bench_error
          (Printf.sprintf "%s: exact counts of pass %d differ from pass 0" what
             (i + 1)))
    others

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status -> (
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' status)
      in
      match line with
      | None -> 0.0
      | Some l -> (
          try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0.0))

(* Start the process's peak-RSS high-water mark afresh (Linux: 5 written
   to clear_refs), so that peak_rss_mb covers the measurement and not the
   spikes of set-up, whose size depends on when collections happened. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* The measurement: after a full collection and from a fresh peak-RSS
   mark, run [pass i] for i = 0, 1, ...: at least three times, then again
   while the next pass, taking as long as the last one, ends within
   [seconds]. *)
let repeat_passes ~seconds pass =
  Gc.compact ();
  reset_peak_rss ();
  let start = now () in
  let rec loop i acc last =
    if i >= 3 && now () -. start +. last > seconds then List.rev acc
    else
      let t0 = now () in
      let r = pass i in
      loop (i + 1) (r :: acc) (now () -. t0)
  in
  loop 0 [] 0.0

(* Set-up [f], done back to back after a full collection, at least [runs]
   times and until [min_s] seconds have gone into it, so that a set-up of
   about a millisecond is timed as often as it takes to read it steadily.
   Returns every time taken and the last result. *)
let timed_setup ?(runs = 1) ?(min_s = 0.0) f =
  Gc.compact ();
  let rec go i spent times =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let times = dt :: times in
    if (i + 1 >= runs && spent +. dt >= min_s) || i + 1 >= 1000 then (times, r)
    else go (i + 1) (spent +. dt) times
  in
  go 0 0.0 []

(* The end-to-end metrics of an untraced run, from its measured passes,
   each a tally and the pass's wall. Every pass runs the same operations in
   the same order, one at a time. This host's speed drifts by tens of
   percent over seconds with other tenants' load (a fixed CPU loop varies
   that much), which medians over passes carry into whole runs. So each
   pass is cut into runs of consecutive operations lasting at least
   [chunk_s], and each run is taken from its fastest pass
   (Stats.best_chunks): every figure still pays for whatever its
   operations cost, collections included, and only the machine's slow
   spells are left out. Throughput is those operations over their summed
   time; percentiles are over their latencies, one per operation. The
   set-up is timed before every pass, so that its samples span the run as
   the passes do; setup_s is their median. *)
let chunk_s = 0.02

let end_to_end ~setup_times passes =
  let setup_s = Stats.median setup_times in
  let best = Stats.best_chunks ~chunk_s (List.map fst passes) in
  let n = List.length (Stats.latencies best) in
  info :=
    ("pass_walls_s", Json.List (List.map (fun (_, w) -> Json.Float w) passes))
    :: ("setup_samples", Json.Int (List.length setup_times))
    :: ("latency_samples", Json.Int n)
    :: ("tail_percentile", Json.Float (Stats.tail_percentile n))
    :: !info;
  metric "setup_s" "s" setup_s;
  metric "ops_per_s" "1/s" (Stats.rate best);
  metric "op_p50_ms" "ms" (1000.0 *. Stats.p50 best);
  metric "op_tail_ms" "ms" (1000.0 *. Stats.tail best);
  metric "peak_rss_mb" "MB" (peak_rss_mb ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove p with Sys_error _ -> ())

let write_trace o events =
  let path = Filename.concat o.work_dir ("trace-" ^ o.workload ^ ".json") in
  Json.to_file path (Trace.chrome_json ~events ());
  info := ("trace_file", Json.String path) :: !info

(* --- Per-layer metrics ---

   Every traced run prints all of them, 0 where its workload does not
   exercise the layer. Names follow the library's modules. *)

let per_layer =
  [
    ("core.parse.s", "s");
    ("core.typing.s", "s");
    ("core.typing.typings", "count");
    ("core.vcgen.s", "s");
    ("core.vcgen.calls", "count");
    ("core.refine.s", "s");
    ("absint.prover.s", "s");
    ("absint.prover.attempts", "count");
    ("absint.prover.proved", "count");
    ("absint.prover.proved_ratio", "ratio");
    ("smt.vc_cache.canon_s", "s");
    ("smt.vc_cache.lookups", "count");
    ("smt.vc_cache.hit_ratio", "ratio");
    ("smt.query.unattributed_s", "s");
    ("smt.lower.s", "s");
    ("smt.aig.s", "s");
    ("smt.aig.nodes_in", "count");
    ("smt.aig.nodes_out", "count");
    ("smt.solve.s", "s");
    ("smt.solve.queries", "count");
    ("smt.solve.calls", "count");
    ("smt.solve.cegar_iterations", "count");
    ("smt.solve.cubes", "count");
    ("sat.cdcl.s", "s");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("engine.task.s", "s");
    ("engine.crashed", "count");
    ("engine.unattributed_s", "s");
    ("service.rtt.s", "s");
    ("service.server.s", "s");
    ("service.transport.s", "s");
    ("service.server.unattributed_s", "s");
    ("service.store.replay_s", "s");
    ("service.store.replayed", "count");
    ("service.store.appended", "count");
    ("service.store.bytes", "count");
    ("service.store.hits", "count");
    ("opt.workload.s", "s");
    ("opt.compiled.build_s", "s");
    ("opt.compiled.context_s", "s");
    ("opt.compiled.match_s", "s");
    ("opt.compiled.match_calls", "count");
    ("opt.compiled.candidates_per_def", "ratio");
    ("opt.compiled.hit_ratio", "ratio");
    ("opt.matcher.rewrite_s", "s");
    ("opt.pass.dce_s", "s");
    ("opt.pass.firings", "count");
    ("opt.pass.saturated", "count");
    ("opt.pass.unattributed_s", "s");
    ("opt.cost_ratio", "ratio");
    ("ir.cost.s", "s");
    ("ir.analysis.s", "s");
    ("trace.other_s", "s");
    ("trace.wall_s", "s");
    ("trace.overhead_ratio", "ratio");
  ]

(* Timed layers that are not part of the traced wall: totals the parts
   add up to, and set-up or probe timings outside it. *)
let outside_wall =
  [
    "trace.wall_s"; "service.rtt.s"; "service.server.s";
    "service.store.replay_s"; "opt.workload.s"; "opt.compiled.build_s";
  ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let get_layer name = Option.value ~default:0.0 (Hashtbl.find_opt layer name)

let add_layer name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("layer " ^ name);
  Hashtbl.replace layer name (v +. get_layer name)

let set_layer name v =
  Hashtbl.remove layer name;
  add_layer name v

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Remainders: what is left of a measured total once the layers inside it
   are subtracted. *)
let is_remainder name =
  String.ends_with ~suffix:"unattributed_s" name
  || name = "service.transport.s" || name = "trace.other_s"

(* Probe estimates subtracted from each remainder. *)
let probed : (string, float) Hashtbl.t = Hashtbl.create 4

let add_probed name v =
  Hashtbl.replace probed name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt probed name))

(* Print every per-layer metric. Each remainder is defined so that the
   timed layers and the remainders add up to the traced wall; what can go
   wrong is a probe estimate larger than the real path it sizes, which
   shows as a negative remainder and makes the run incorrect. A probe runs
   apart from the call it sizes, and this host's speed drifts, so a
   remainder may fall below zero by a quarter of the probe estimates
   taken from it before it counts as an overshoot. *)
let emit_layers () =
  let timed =
    List.fold_left
      (fun acc (name, unit) ->
        if unit = "s" && not (List.mem name outside_wall) then
          acc +. get_layer name
        else acc)
      0.0 per_layer
  in
  let wall = get_layer "trace.wall_s" in
  assert (Float.abs (timed -. wall) <= 1e-6 *. Float.max 1.0 wall);
  List.iter
    (fun (name, _) ->
      let v = get_layer name in
      let probes = Option.value ~default:0.0 (Hashtbl.find_opt probed name) in
      if is_remainder name && v < -.((1e-4 *. wall) +. (0.25 *. probes)) then
        bench_error
          (Printf.sprintf "%s is %.6fs: probes overshoot the real path" name v))
    per_layer;
  List.iter (fun (name, unit) -> metric name unit (get_layer name)) per_layer

let layer_of_phase = function
  | "task" -> Some "engine.task.s"
  | "parse" -> Some "core.parse.s"
  | "typing" -> Some "core.typing.s"
  | "vcgen" -> Some "core.vcgen.s"
  | "check_typing" -> Some "core.refine.s"
  | "cegar_iter" | "sat_solve" | "model_extract" -> Some "smt.solve.s"
  | "lower" -> Some "smt.lower.s"
  | "bitblast" -> Some "smt.aig.s"
  | "cdcl" -> Some "sat.cdcl.s"
  | _ -> None

(* Attribute the library's spans to layers by self time. [solve_query]'s
   own time is the static prover, the verdict cache's canonicalization and
   the tier dispatch; the first two are sized by probes ([prover_s],
   [canon_s]) and the rest stays smt.query.unattributed_s. Returns the
   summed root-span time. *)
let attribute_spans events ~prover_s ~canon_s =
  let phases, roots = Attrib.self_times events in
  List.iter
    (fun (phase, self, n) ->
      if phase = "vcgen" then add_layer "core.vcgen.calls" (float n);
      if phase = "solve_query" then begin
        add_layer "absint.prover.s" prover_s;
        add_layer "smt.vc_cache.canon_s" canon_s;
        add_layer "smt.query.unattributed_s" (self -. prover_s -. canon_s);
        add_probed "smt.query.unattributed_s" (prover_s +. canon_s)
      end
      else
        match layer_of_phase phase with
        | Some l -> add_layer l self
        | None -> add_layer "trace.other_s" self)
    phases;
  roots

(* Per-call cost of the static prover and of the verdict cache's
   canonicalization, probed on every refinement query of [items]. The
   probe runs twice and the lower cost is kept: a slow spell of the host
   during a probe would overstate it. *)
let rec probe_query_tiers ?(runs = 2) items =
  let prover = ref 0.0 and canon = ref 0.0 and n = ref 0 in
  List.iter
    (fun ((e : Entry.t), widths) ->
      let t = Entry.parse e in
      match Alive.Typing.enumerate ?widths t with
      | Error _ -> ()
      | Ok typings ->
          List.iter
            (fun env ->
              match Alive.Vcgen.run env t with
              | exception Alive.Vcgen.Unsupported _ -> ()
              | vc ->
                  let exists = vc.Alive.Vcgen.src.undefs in
                  List.iter
                    (fun (_, _, formula) ->
                      let t0 = now () in
                      (try
                         ignore (Alive_absint.Prover.prove_valid ~exists formula)
                       with _ -> ());
                      let t1 = now () in
                      ignore (Alive_smt.Vc_cache.canon ~exists formula);
                      let t2 = now () in
                      prover := !prover +. (t1 -. t0);
                      canon := !canon +. (t2 -. t1);
                      incr n)
                    (Alive.Refine.typing_queries vc))
            typings)
    items;
  let p = ratio !prover (float !n) and c = ratio !canon (float !n) in
  if runs <= 1 then (p, c)
  else
    let p', c' = probe_query_tiers ~runs:(runs - 1) items in
    (Float.min p p', Float.min c c')

let query_layers ~queries ~static_proved ~hits ~lookups =
  set_layer "absint.prover.attempts" (float queries);
  set_layer "absint.prover.proved" (float static_proved);
  set_layer "absint.prover.proved_ratio"
    (ratio (float static_proved) (float queries));
  set_layer "smt.solve.queries" (float queries);
  set_layer "smt.vc_cache.lookups" (float lookups);
  set_layer "smt.vc_cache.hit_ratio" (ratio (float hits) (float lookups))

(* --- verify-corpus and verify-wide --- *)

let verify_items ~wide =
  if wide then
    List.concat_map
      (fun (e : Entry.t) ->
        match e.widths with
        | Some _ -> []
        | None -> [ (e, Some [ 16 ]); (e, Some [ 32 ]) ])
      Registry.all
  else List.map (fun (e : Entry.t) -> (e, e.widths)) Registry.all

(* The verify workloads' set-up: parse every entry once and build the task
   list the passes run. A parse error is kept and raised by the task, so it
   surfaces as that entry's crash. *)
let verify_tasks items =
  let parsed = Hashtbl.create 256 in
  List.map
    (fun ((e : Entry.t), widths) ->
      let t =
        match Hashtbl.find_opt parsed e.name with
        | Some t -> t
        | None ->
            let t = try Ok (Entry.parse e) with ex -> Error ex in
            Hashtbl.add parsed e.name t;
            t
      in
      let prepare () = match t with Ok t -> t | Error ex -> raise ex in
      { Engine.task_name = e.name; widths; prepare })
    items

let verify_counts (r : Engine.report) =
  let (s : Alive.Refine.stats) = r.total in
  let (tl : Alive_smt.Solve.telemetry) = s.telemetry in
  [
    ("verdicts", List.length r.results);
    ("typings", s.typings_done);
    ("queries", s.queries);
    ("static_proved", tl.static_proved);
    ("cache_hits", tl.cache_hits);
    ("cache_misses", tl.cache_misses);
    ("sat_checks", tl.checks);
    ("conflicts", tl.conflicts);
    ("decisions", tl.decisions);
    ("propagations", tl.propagations);
    ("cegar_iterations", tl.cegar_iterations);
    ("cubes", tl.cubes_spawned);
    ("aig_nodes_in", tl.aig_nodes_in);
    ("aig_nodes_out", tl.aig_nodes_out);
    ("crashed", r.crashed);
  ]

(* One pass over every item, from cold in-memory verdict caches, on one
   worker (the calling domain). *)
let verify_pass items tasks =
  Alive_smt.Vc_cache.clear ();
  let r = Engine.verify_corpus ~jobs:1 tasks in
  let t = Stats.tally () in
  List.iter
    (fun ((res : Engine.task_result), ((e : Entry.t), _)) ->
      let v = Engine.verdict_name res in
      let ok =
        Oracle.verdict_ok ~expect_valid:(e.expected = Entry.Expect_valid) v
      in
      if not ok then op_failed (Printf.sprintf "%s: verdict %s" res.name v);
      Stats.record t ~ok res.elapsed)
    (List.combine r.results items);
  (r, t)

let run_verify ~wide o =
  let items = verify_items ~wide in
  let setup () = timed_setup ~min_s:0.02 (fun () -> verify_tasks items) in
  info := ("verdicts_per_pass", Json.Int (List.length items)) :: !info;
  if not o.traced then begin
    let setup_times = ref [] in
    let passes =
      repeat_passes ~seconds:o.seconds (fun _ ->
          let times, tasks = setup () in
          setup_times := times @ !setup_times;
          verify_pass items tasks)
    in
    let all = List.map (fun (r, _) -> verify_counts r) passes in
    check_same o.workload (List.hd all) (List.tl all);
    counts := int_counts (List.hd all);
    List.iter (fun (_, t) -> add_tally t) passes;
    end_to_end ~setup_times:!setup_times
      (List.map (fun ((r : Engine.report), t) -> (t, r.wall)) passes)
  end
  else begin
    (* A first pass warms the hash-consed term table, so that the untraced
       reference pass and the traced pass start alike. *)
    let _, tasks = setup () in
    let rw, tw = verify_pass items tasks in
    let r0, t0 = verify_pass items tasks in
    Trace.clear ();
    Trace.set_enabled true;
    let r1, t1 = verify_pass items tasks in
    Trace.set_enabled false;
    let events = Trace.drain () in
    Trace.clear ();
    write_trace o events;
    let c0 = verify_counts rw in
    check_same (o.workload ^ " traced") c0 [ verify_counts r0; verify_counts r1 ];
    counts := int_counts c0;
    List.iter add_tally [ tw; t0; t1 ];
    let per_prover, per_canon = probe_query_tiers items in
    let (s : Alive.Refine.stats) = r1.total in
    let (tl : Alive_smt.Solve.telemetry) = s.telemetry in
    let q = float s.queries in
    let roots =
      attribute_spans events ~prover_s:(per_prover *. q)
        ~canon_s:(per_canon *. q)
    in
    set_layer "engine.unattributed_s" (r1.wall -. roots);
    set_layer "engine.crashed" (float r1.crashed);
    set_layer "core.typing.typings" (float s.typings_done);
    query_layers ~queries:s.queries ~static_proved:tl.static_proved
      ~hits:(tl.cache_hits + tl.store_hits)
      ~lookups:(tl.cache_hits + tl.store_hits + tl.cache_misses);
    set_layer "smt.aig.nodes_in" (float tl.aig_nodes_in);
    set_layer "smt.aig.nodes_out" (float tl.aig_nodes_out);
    set_layer "smt.solve.calls" (float tl.checks);
    set_layer "smt.solve.cegar_iterations" (float tl.cegar_iterations);
    set_layer "smt.solve.cubes" (float tl.cubes_spawned);
    set_layer "sat.conflicts" (float tl.conflicts);
    set_layer "sat.decisions" (float tl.decisions);
    set_layer "sat.propagations" (float tl.propagations);
    set_layer "trace.wall_s" r1.wall;
    set_layer "trace.overhead_ratio" ((r1.wall /. r0.wall) -. 1.0);
    emit_layers ()
  end

(* --- optimize-zipf --- *)

let opt_functions = 1000

let opt_config seed =
  { Alive_opt.Workload.default with seed; functions = opt_functions }

let valid_rules () =
  List.filter_map
    (fun (e : Entry.t) ->
      if e.expected = Entry.Expect_valid && e.canonical then
        Result.to_option (Alive_opt.Matcher.rule_of_transform (Entry.parse e))
      else None)
    Registry.all

type opt_setup = {
  rules : Alive_opt.Matcher.rule list;
  funcs : Ir.func array;
  generate_s : float;
}

let opt_setup seed =
  let rules = valid_rules () in
  let t0 = now () in
  let funcs =
    Trace.with_span "workload.generate" (fun () ->
        Alive_opt.Workload.generate (opt_config seed) rules)
  in
  let generate_s = now () -. t0 in
  (* The pass compiles its decision tree on first use; pay that here. *)
  (match funcs with
  | f :: _ -> ignore (Alive_opt.Pass.run_guarded ~rules f)
  | [] -> ());
  { rules; funcs = Array.of_list funcs; generate_s }

let firings (o : Alive_opt.Pass.outcome) =
  List.fold_left (fun a (_, n) -> a + n) 0 o.stats

(* What cycle 0 established per function, which later cycles repeat. *)
type opt_fact = { fires : int; cost_out : int }

type opt_totals = {
  mutable total_fires : int;
  mutable saturated : int;
  mutable cost_in : int;
  mutable cost_out_sum : int;
  mutable table : Alive_opt.Pass.stats;
}

(* One cycle over every function, each optimized on the calling domain and
   timed alone; [probe] runs after each call, outside its time. Outputs are
   checked after the loop, outside the cycle's wall: the first time a
   function is seen its output goes through the refinement oracle, and
   afterwards it must repeat cycle 0's firing count and cost. Returns the
   cycle's tally, its wall and the summed time of its calls. *)
let opt_cycle ?(probe = fun _ _ -> ()) ~seed st facts totals i_cycle =
  let w0 = now () in
  let results =
    Array.map
      (fun (f : Ir.func) ->
        let t0 = now () in
        match
          Trace.with_span "pass.run_guarded" (fun () ->
              Alive_opt.Pass.run_guarded ~rules:st.rules f)
        with
        | exception e -> Error e
        | o ->
            let dt = now () -. t0 in
            probe f o;
            Ok (o, dt))
      st.funcs
  in
  let wall = now () -. w0 in
  let t = Stats.tally () and timed = ref 0.0 in
  Array.iteri
    (fun i result ->
      let f = st.funcs.(i) in
      match result with
      | Error e ->
          op_failed (f.Ir.fname ^ ": " ^ Printexc.to_string e);
          Stats.record t ~ok:false 0.0
      | Ok ((o : Alive_opt.Pass.outcome), dt) ->
          timed := !timed +. dt;
          let fact = { fires = firings o; cost_out = Cost.func_cost o.func } in
          let ok =
            match facts.(i) with
            | None -> (
                facts.(i) <- Some fact;
                totals.total_fires <- totals.total_fires + fact.fires;
                if o.saturated then totals.saturated <- totals.saturated + 1;
                totals.cost_in <- totals.cost_in + Cost.func_cost f;
                totals.cost_out_sum <- totals.cost_out_sum + fact.cost_out;
                totals.table <- Alive_opt.Pass.merge_stats totals.table o.stats;
                match Oracle.refines ~seed:((seed * 7919) + i) f o.func with
                | Ok () -> true
                | Error e ->
                    op_failed e;
                    false)
            | Some first when first = fact -> true
            | Some _ ->
                bench_error
                  (Printf.sprintf "%s: cycle %d differs from cycle 0" f.Ir.fname
                     i_cycle);
                false
          in
          Stats.record t ~ok dt)
    results;
  (t, wall, !timed)

let opt_counts functions totals =
  let table =
    List.sort compare totals.table
    |> List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n)
    |> String.concat ";"
  in
  [
    ("functions", Json.Int functions);
    ("firings", Json.Int totals.total_fires);
    ("saturated", Json.Int totals.saturated);
    ("cost_in", Json.Int totals.cost_in);
    ("cost_out", Json.Int totals.cost_out_sum);
    ("rules_fired", Json.Int (List.length totals.table));
    ("firing_table_md5", Json.String (Digest.to_hex (Digest.string table)));
  ]

let new_totals () =
  { total_fires = 0; saturated = 0; cost_in = 0; cost_out_sum = 0; table = [] }

let opt_info seed =
  let c = opt_config seed in
  info :=
    ( "generator",
      Json.Obj
        [
          ("seed", Json.Int c.seed);
          ("functions", Json.Int c.functions);
          ("instructions_per_function", Json.Int c.instructions_per_function);
          ("inject_probability", Json.Float c.inject_probability);
          ("zipf_exponent", Json.Float c.zipf_exponent);
          ("widths", Json.List (List.map (fun w -> Json.Int w) c.widths));
        ] )
    :: !info

(* Probes for the layers behind [Pass.run_guarded], on the function's
   input with its dead code removed: after the first accepted rewrite the
   pass only ever sees dead-free functions. A pass over a function with F
   firings makes, per accepted rewrite, one [Matcher.rewrite], one DCE, two
   costings and one context rebuild, plus one of each at the start or the
   end; matching sweeps every definition at least twice (the initial
   worklist and the final validation sweep). The precondition analysis is
   memoized per function version, so only one known-bits query per
   function is counted. Per-call cost times those counts is what is
   attributed; rescans after a rewrite, rejected candidates and the
   per-rewrite bookkeeping stay in opt.pass.unattributed_s. *)
type opt_probe = {
  mutable defs : int;
  mutable cands : int;
  mutable hits : int;
  mutable rewrite_s : float;
  mutable rewrites : int;
}

let probe_opt tree p (input : Ir.func) (o : Alive_opt.Pass.outcome) =
  let fires = float (firings o) in
  let f = Alive_opt.Pass.dce input in
  let time g =
    let t0 = now () in
    let r = g () in
    (r, now () -. t0)
  in
  let ctx, t_ctx = time (fun () -> Alive_opt.Compiled.context tree f) in
  let matches, t_match =
    time (fun () -> List.map (Alive_opt.Compiled.match_def ctx) f.Ir.body)
  in
  let n = List.length f.Ir.body in
  p.defs <- p.defs + n;
  p.cands <-
    List.fold_left
      (fun a d -> a + List.length (Alive_opt.Compiled.candidates ctx d))
      p.cands f.Ir.body;
  p.hits <- p.hits + List.length (List.filter Option.is_some matches);
  (match List.find_map Fun.id matches with
  | Some (rule, m) ->
      let _, t = time (fun () -> Alive_opt.Matcher.rewrite rule f m) in
      p.rewrite_s <- p.rewrite_s +. t;
      p.rewrites <- p.rewrites + 1
  | None -> ());
  let _, t_dce = time (fun () -> Alive_opt.Pass.dce f) in
  let _, t_cost = time (fun () -> Cost.func_cost f) in
  let _, t_an = time (fun () -> Analysis.known_bits f f.Ir.ret) in
  add_layer "opt.compiled.context_s" (t_ctx *. (fires +. 1.0));
  add_layer "opt.compiled.match_s" (t_match *. 2.0);
  add_layer "opt.compiled.match_calls" (float (2 * n));
  add_layer "opt.pass.dce_s" (t_dce *. (fires +. 1.0));
  add_layer "ir.cost.s" (t_cost *. ((2.0 *. fires) +. 1.0));
  add_layer "ir.analysis.s" t_an

let run_optimize o =
  opt_info o.seed;
  let n = opt_functions in
  if not o.traced then begin
    let facts = Array.make n None and totals = new_totals () in
    let setup_times = ref [] in
    let cycles =
      repeat_passes ~seconds:o.seconds (fun i ->
          let times, st = timed_setup (fun () -> opt_setup o.seed) in
          setup_times := times @ !setup_times;
          opt_cycle ~seed:o.seed st facts totals i)
    in
    counts := opt_counts opt_functions totals;
    List.iter (fun (t, _, _) -> add_tally t) cycles;
    end_to_end ~setup_times:!setup_times
      (List.map (fun (t, wall, _) -> (t, wall)) cycles)
  end
  else begin
    Trace.clear ();
    Trace.set_enabled true;
    let st = opt_setup o.seed in
    let t0 = now () in
    let tree =
      Trace.with_span "compiled.build" (fun () ->
          Alive_opt.Compiled.build st.rules)
    in
    set_layer "opt.compiled.build_s" (now () -. t0);
    set_layer "opt.workload.s" st.generate_s;
    Trace.set_enabled false;
    let facts = Array.make n None and totals = new_totals () in
    let t_ref, _, untraced = opt_cycle ~seed:o.seed st facts totals 0 in
    let p = { defs = 0; cands = 0; hits = 0; rewrite_s = 0.0; rewrites = 0 } in
    Trace.set_enabled true;
    let t_traced, _, traced =
      opt_cycle ~probe:(probe_opt tree p) ~seed:o.seed st facts totals 1
    in
    Trace.set_enabled false;
    let events = Trace.drain () in
    Trace.clear ();
    write_trace o events;
    add_tally t_ref;
    add_tally t_traced;
    counts := opt_counts opt_functions totals;
    set_layer "opt.matcher.rewrite_s"
      (ratio p.rewrite_s (float p.rewrites) *. float totals.total_fires);
    set_layer "opt.compiled.candidates_per_def"
      (ratio (float p.cands) (float p.defs));
    set_layer "opt.compiled.hit_ratio" (ratio (float p.hits) (float p.defs));
    set_layer "opt.pass.firings" (float totals.total_fires);
    set_layer "opt.pass.saturated" (float totals.saturated);
    set_layer "opt.cost_ratio"
      (ratio (float totals.cost_out_sum) (float totals.cost_in));
    let attributed =
      List.fold_left
        (fun a name -> a +. get_layer name)
        0.0
        [
          "opt.compiled.context_s";
          "opt.compiled.match_s";
          "opt.matcher.rewrite_s";
          "opt.pass.dce_s";
          "ir.cost.s";
          "ir.analysis.s";
        ]
    in
    set_layer "opt.pass.unattributed_s" (traced -. attributed);
    add_probed "opt.pass.unattributed_s" attributed;
    set_layer "trace.wall_s" traced;
    set_layer "trace.overhead_ratio" ((traced /. untraced) -. 1.0);
    emit_layers ()
  end

(* --- daemon-warm --- *)

let start_daemon ~socket ~store_dir =
  let config =
    {
      (Daemon.default_config ~socket_path:socket) with
      store_dir = Some store_dir;
      jobs = Some 1;
      compact_on_exit = false;
    }
  in
  let finished = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        (match Daemon.serve config with
        | Ok () -> ()
        | Error e -> bench_error ("daemon: " ^ e));
        Atomic.set finished true)
      ()
  in
  let rec connect tries =
    match Client.connect socket with
    | Ok c -> c
    | Error e when tries = 0 || Atomic.get finished ->
        failwith ("cannot reach the daemon: " ^ e)
    | Error _ ->
        Thread.delay 0.01;
        connect (tries - 1)
  in
  (connect 1000, th)

let stop_daemon (c, th) =
  ignore (Client.shutdown c);
  Client.close c;
  Thread.join th

let response_fields =
  [
    "typings"; "queries"; "static_proved"; "cache_hits"; "cache_misses";
    "store_hits"; "conflicts";
  ]

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let field tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* One verify request, timed at the client; its response fields summed
   into [tbl]. Correct when every verdict in it is the expected one. *)
let request c tbl (e : Entry.t) =
  let t0 = now () in
  let r = Client.verify c ?widths:e.widths ~text:e.text () in
  let dt = now () -. t0 in
  let expect_valid = e.expected = Entry.Expect_valid in
  let ok =
    match r with
    | Error msg ->
        op_failed (e.name ^ ": " ^ msg);
        false
    | Ok (Json.List (_ :: _ as items)) ->
        List.for_all
          (fun item ->
            List.iter
              (fun k ->
                match Option.bind (Json.member k item) Json.to_int with
                | Some n -> bump tbl k n
                | None -> ())
              response_fields;
            match Option.bind (Json.member "verdict" item) Json.to_str with
            | Some v when Oracle.verdict_ok ~expect_valid v -> true
            | v ->
                op_failed
                  (Printf.sprintf "%s: verdict %s" e.name
                     (Option.value ~default:"missing" v));
                false)
          items
    | Ok _ ->
        op_failed (e.name ^ ": malformed response");
        false
  in
  (ok, dt)

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let hist_total name =
  match
    List.find_opt
      (fun (h : Metrics.hist_snapshot) -> h.name = name)
      (Metrics.snapshot ()).histograms
  with
  | Some h -> h.total_s
  | None -> 0.0

let count_list tbl = List.map (fun k -> (k, field tbl k)) response_fields

(* The daemon's cold set-up, run as a process of its own (--cold-store): a
   fresh daemon on an empty store verifies the corpus once, writing its
   verdicts to the store. Prints one JSON line with the store's appended
   count, the summed response counts and the operations' tally. *)
let cold_store o =
  let store_dir = o.cold_store in
  let d = start_daemon ~socket:(store_dir ^ ".sock") ~store_dir in
  let tbl = Hashtbl.create 8 and t = Stats.tally () in
  List.iter
    (fun e ->
      let ok, dt = request (fst d) tbl e in
      Stats.record t ~ok dt)
    Registry.all;
  let appended =
    match Client.store_stats (fst d) with
    | Ok j ->
        Option.value ~default:0 (Option.bind (Json.member "appended" j) Json.to_int)
    | Error _ -> 0
  in
  stop_daemon d;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("appended", Json.Int appended);
            ("counts", Json.Obj (int_counts (count_list tbl)));
            ("attempted", Json.Int t.attempted);
            ("failed", Json.Int t.failed);
            ("failures", Json.List (List.map (fun f -> Json.String f) !failures));
          ]))

(* Run [cold_store] in a child process and take over its result. *)
let spawn_cold_store o ~store_dir =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "--workload"; o.workload; "--work-dir"; o.work_dir;
        "--cold-store"; store_dir;
      |]
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  let int j k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int) in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j ->
      attempted := !attempted + int j "attempted";
      failed := !failed + int j "failed";
      Option.iter
        (List.iter (fun f -> Option.iter op_failed (Json.to_str f)))
        (Option.bind (Json.member "failures" j) Json.to_list);
      let counts =
        match Json.member "counts" j with
        | Some (Json.Obj fields) ->
            List.map (fun (k, v) -> (k, Option.value ~default:0 (Json.to_int v))) fields
        | _ -> []
      in
      (int j "appended", counts)
  | _ -> failwith "daemon cold set-up failed"

let run_daemon o =
  let dir =
    Filename.concat o.work_dir (Printf.sprintf "daemon-%d" (Unix.getpid ()))
  in
  remove_tree dir;
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let store_dir = Filename.concat dir "store" in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let entries = Array.of_list Registry.all in
  info :=
    ("request_order", Json.String (Printf.sprintf "shuffled, seed %d" o.seed))
    :: !info;
  (* Set-up, part 1: the cold set-up, in a process of its own so that its
     solving leaves nothing in this one's heap. Done five times on a fresh
     store; each must give the same counts. *)
  let cold_counts = ref [] in
  let cold_times, (appended, cold) =
    timed_setup ~runs:5 (fun () ->
        remove_tree store_dir;
        let r = spawn_cold_store o ~store_dir in
        cold_counts := r :: !cold_counts;
        r)
  in
  check_same "daemon cold set-up" (List.hd !cold_counts) (List.tl !cold_counts);
  (* Part 2: the daemon restarts on the warm store, as after a deploy. The
     restart (store replay included) is timed five times; set-up is the
     median cold set-up plus the median restart, and the last daemon
     serves every pass. *)
  let restart () =
    let t0 = now () in
    let d = start_daemon ~socket ~store_dir in
    ignore (Client.ping (fst d));
    (now () -. t0, d)
  in
  let rec restarts n acc =
    let dt, d = restart () in
    if n <= 1 then (Stats.median (dt :: acc), d)
    else begin
      stop_daemon d;
      restarts (n - 1) (dt :: acc)
    end
  in
  let restart_s, d = restarts 5 [] in
  let order =
    shuffled
      (Random.State.make [| o.seed |])
      (Array.init (Array.length entries) Fun.id)
  in
  (* One client, one connection, one request in flight: a closed loop.
     Every pass sends the entries in the same seeded order. Before it, the
     worker's in-memory verdict table is emptied, the only state a restart
     would reset, so that each pass reaches the store as the first pass
     after a restart does; restarting for every pass instead would grow
     the process by a few MB each time (thread and domain memory) and
     make peak_rss_mb depend on the pass count. [before] and [after] run
     around the requests. *)
  let warm_pass ?(before = ignore) ?(after = ignore) tbl =
    Alive_smt.Vc_cache.clear ();
    let t = Stats.tally () in
    let rtt = ref 0.0 in
    before ();
    let t0 = now () in
    Array.iter
      (fun i ->
        let ok, dt = request (fst d) tbl entries.(i) in
        rtt := !rtt +. dt;
        Stats.record t ~ok dt)
      order;
    let wall = now () -. t0 in
    after ();
    (t, wall, !rtt)
  in
  let first = Hashtbl.create 8 in
  let finish () =
    counts :=
      int_counts
        (List.map (fun (k, v) -> ("cold." ^ k, v)) cold
        @ [ ("cold.appended", appended) ]
        @ List.map (fun (k, v) -> ("warm." ^ k, v)) (count_list first))
  in
  if not o.traced then begin
    let tables = ref [] in
    let passes =
      repeat_passes ~seconds:o.seconds (fun i ->
          let tbl = if i = 0 then first else Hashtbl.create 8 in
          let pass = warm_pass tbl in
          tables := count_list tbl :: !tables;
          pass)
    in
    stop_daemon d;
    (match List.rev !tables with
    | c0 :: rest -> check_same o.workload c0 rest
    | [] -> ());
    finish ();
    List.iter (fun (t, _, _) -> add_tally t) passes;
    end_to_end
      ~setup_times:[ Stats.median cold_times +. restart_s ]
      (List.map (fun (t, w, _) -> (t, w)) passes)
  end
  else begin
    (* Pass 0 is the untraced reference, pass 1 is traced. *)
    let t_ref, wall_ref, _ = warm_pass first in
    let server = ref 0.0 and events = ref [] in
    let tbl = Hashtbl.create 8 in
    let t_tr, wall_tr, rtt =
      warm_pass
        ~before:(fun () ->
          Trace.Ring.clear ();
          Trace.Ring.set_capacity (2 * Array.length entries);
          server := hist_total "service.request_s")
        ~after:(fun () ->
          server := hist_total "service.request_s" -. !server;
          events := Trace.Ring.contents ())
        tbl
    in
    stop_daemon d;
    let server = !server and events = !events in
    finish ();
    write_trace o events;
    List.iter add_tally [ t_ref; t_tr ];
    let per_prover, per_canon =
      probe_query_tiers
        (List.map (fun (e : Entry.t) -> (e, e.widths)) Registry.all)
    in
    let q = float (field tbl "queries") in
    let roots =
      attribute_spans events ~prover_s:(per_prover *. q)
        ~canon_s:(per_canon *. q)
    in
    set_layer "service.rtt.s" rtt;
    set_layer "service.server.s" server;
    set_layer "service.transport.s" (rtt -. server);
    set_layer "service.server.unattributed_s" (server -. roots);
    set_layer "service.store.appended" (float appended);
    set_layer "service.store.hits" (float (field tbl "store_hits"));
    set_layer "core.typing.typings" (float (field tbl "typings"));
    query_layers ~queries:(field tbl "queries")
      ~static_proved:(field tbl "static_proved")
      ~hits:(field tbl "cache_hits" + field tbl "store_hits")
      ~lookups:
        (field tbl "cache_hits" + field tbl "store_hits"
        + field tbl "cache_misses");
    set_layer "sat.conflicts" (float (field tbl "conflicts"));
    (* The store's replay cost, probed with a read-only open of the store
       the daemons used. *)
    let t0 = now () in
    (match Store.open_store ~readonly:true store_dir with
    | Ok st ->
        set_layer "service.store.replay_s" (now () -. t0);
        let s = Store.stats st in
        set_layer "service.store.replayed" (float s.replayed);
        set_layer "service.store.bytes" (float s.bytes);
        Store.close st
    | Error e -> bench_error ("store probe: " ^ e));
    set_layer "trace.wall_s" rtt;
    set_layer "trace.overhead_ratio" ((wall_tr /. wall_ref) -. 1.0);
    emit_layers ()
  end

(* --- Main --- *)

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let work_dir = ref (Filename.concat ".bench_build" "perfbench") in
  let cold_store = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch files and traces");
      ( "--cold-store",
        Arg.Set_string cold_store,
        "DIR daemon-warm only: run the cold set-up into DIR and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    traced = !trace = 1;
    work_dir = !work_dir;
    cold_store = !cold_store;
  }

let print_result () =
  let num v = Json.String (Printf.sprintf "%.17g" v) in
  let strings l = Json.List (List.rev_map (fun s -> Json.String s) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0 && !errors = []));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.rev_map
                   (fun (name, unit, v) ->
                     ( name,
                       Json.Obj [ ("value", num v); ("unit", Json.String unit) ]
                     ))
                   !metrics) );
            ("counts", Json.Obj !counts);
            ("info", Json.Obj (List.rev !info));
            ("failures", strings !failures);
            ("errors", strings !errors);
          ]))

let () =
  let o = parse_args () in
  (* One worker: cubes are solved in turn on the calling domain instead of
     fanning out to a second pool. *)
  Alive_smt.Solve.set_cube_runner None;
  mkdir_p o.work_dir;
  info :=
    [
      ("jobs", Json.Int 1);
      ("seconds", Json.Float o.seconds);
      ("seed", Json.Int o.seed);
      ("workload", Json.String o.workload);
    ];
  if o.cold_store <> "" then begin
    cold_store o;
    exit 0
  end;
  (match o.workload with
  | "verify-corpus" -> run_verify ~wide:false o
  | "verify-wide" -> run_verify ~wide:true o
  | "optimize-zipf" -> run_optimize o
  | "daemon-warm" -> run_daemon o
  | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2);
  print_result ()
