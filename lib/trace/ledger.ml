(* The cross-run performance ledger.

   An instrumented run appends one JSONL record: what ran (git revision,
   label, jobs, tasks, budget), its wall time, what the metrics registry
   recorded over the run — the difference between a snapshot taken before
   and one taken after, as counters and per-phase histogram totals — a few
   named figures the registry does not hold (optimizer rates, inference
   wall), and the verdict histogram. `alive perf diff` compares the newest
   record against a baseline. *)

type phase_total = { phase : string; count : int; total_s : float }
type budget = { timeout_s : float; conflict_limit : int }

type record = {
  schema : int;
  timestamp : string;  (* ISO-8601 UTC *)
  git_rev : string;
  label : string;  (* e.g. "corpus_check", "optimize" *)
  jobs : int;
  tasks : int;
  budget : budget;  (* 0 = none *)
  wall_s : float;
  counters : (string * float) list;  (* sorted by name *)
  verdicts : (string * int) list;  (* verdict name -> count *)
  phases : phase_total list;
}

let schema_version = 9

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 12 -> String.sub s 0 12
  | Some s when s <> "" -> s
  | _ -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "unknown" else line
      with _ -> "unknown")

(* A record made on a tree whose tracked files differ from HEAD measured
   no commit, so its stamp says so. Ledger files are left out of the
   comparison: appending a record changes them. *)
let tree_rev () =
  let rev = git_rev () in
  if Sys.getenv_opt "GITHUB_SHA" <> None || rev = "unknown" then rev
  else
    match
      Sys.command "git diff --quiet HEAD -- ':(top,exclude)*.jsonl' 2>/dev/null"
    with
    | 1 -> rev ^ "-dirty"
    | _ -> rev

(* --- A run's registry change --- *)

(* Totals and seconds by difference. A peak is a high-water mark, so the
   later snapshot gives the run's own peak only when the run raised it or
   the registry started at zero; otherwise the peak is left out. *)
let counters_since (before : Metrics.snapshot) (after : Metrics.snapshot) =
  let was l n = List.assoc_opt n l in
  let totals =
    List.map
      (fun (n, v) ->
        (n, float_of_int (v - Option.value ~default:0 (was before.counters n))))
      after.counters
  and seconds =
    List.map
      (fun (n, v) -> (n, v -. Option.value ~default:0.0 (was before.seconds n)))
      after.seconds
  and peaks =
    List.filter_map
      (fun (n, v) ->
        let prev = Option.value ~default:0 (was before.peaks n) in
        if v > prev || prev = 0 then Some (n, float_of_int v) else None)
      after.peaks
  in
  List.sort compare (totals @ seconds @ peaks)

let phases_since (before : Metrics.snapshot) (after : Metrics.snapshot) =
  List.filter_map
    (fun (h : Metrics.hist_snapshot) ->
      let count, total_s =
        match
          List.find_opt
            (fun (b : Metrics.hist_snapshot) -> b.name = h.name)
            before.histograms
        with
        | Some b -> (h.count - b.count, h.total_s -. b.total_s)
        | None -> (h.count, h.total_s)
      in
      if count > 0 then Some { phase = h.name; count; total_s } else None)
    after.histograms

let make ~label ~jobs ~tasks
    ?(budget = { timeout_s = 0.0; conflict_limit = 0 }) ~wall_s ?(extras = [])
    ?(verdicts = []) before after =
  {
    schema = schema_version;
    timestamp = iso8601 (Unix.gettimeofday ());
    git_rev = tree_rev ();
    label;
    jobs;
    tasks;
    budget;
    wall_s;
    counters = List.sort compare (counters_since before after @ extras);
    verdicts;
    phases = phases_since before after;
  }

(* --- JSON --- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let to_json r =
  Json.Obj
    [
      ("schema", Json.Int r.schema);
      ("timestamp", Json.String r.timestamp);
      ("git_rev", Json.String r.git_rev);
      ("label", Json.String r.label);
      ("jobs", Json.Int r.jobs);
      ("tasks", Json.Int r.tasks);
      ( "budget",
        Json.Obj
          [
            ("timeout_s", Json.Float r.budget.timeout_s);
            ("conflict_limit", Json.Int r.budget.conflict_limit);
          ] );
      ("wall_s", Json.Float r.wall_s);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, number v)) r.counters));
      ("verdicts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.verdicts));
      ( "phases",
        Json.Obj
          (List.map
             (fun p ->
               ( p.phase,
                 Json.Obj
                   [
                     ("count", Json.Int p.count);
                     ("total_s", Json.Float p.total_s);
                   ] ))
             r.phases) );
    ]

let of_json j =
  let get k conv o = Option.bind (Json.member k o) conv in
  let obj k conv =
    match Json.member k j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (n, v) -> Option.map (fun x -> (n, x)) (conv v))
          fields
    | _ -> []
  in
  match (get "schema" Json.to_int j, get "wall_s" Json.to_float j) with
  | Some schema, _ when schema <> schema_version ->
      Error
        (Printf.sprintf "ledger record: schema %d, this build reads %d" schema
           schema_version)
  | None, _ | _, None -> Error "ledger record: missing schema or wall_s"
  | Some schema, Some wall_s ->
      let str k = Option.value ~default:"" (get k Json.to_str j) in
      let budget = Option.value ~default:(Json.Obj []) (Json.member "budget" j) in
      Ok
        {
          schema;
          timestamp = str "timestamp";
          git_rev = str "git_rev";
          label = str "label";
          jobs = Option.value ~default:1 (get "jobs" Json.to_int j);
          tasks = Option.value ~default:0 (get "tasks" Json.to_int j);
          budget =
            {
              timeout_s =
                Option.value ~default:0.0 (get "timeout_s" Json.to_float budget);
              conflict_limit =
                Option.value ~default:0 (get "conflict_limit" Json.to_int budget);
            };
          wall_s;
          counters = List.sort compare (obj "counters" Json.to_float);
          verdicts = obj "verdicts" Json.to_int;
          phases =
            obj "phases" (fun p ->
                match
                  (get "count" Json.to_int p, get "total_s" Json.to_float p)
                with
                | Some count, Some total_s -> Some (count, total_s)
                | _ -> None)
            |> List.map (fun (phase, (count, total_s)) ->
                   { phase; count; total_s });
        }

(* --- Persistence --- *)

let append ~path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let load ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such ledger")
  else
    let lines =
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match Result.bind (Json.parse line) of_json with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path (i + 1) e)
          | Ok r -> go (r :: acc) (i + 1) rest)
    in
    go [] 0 lines

(* --- Diffing --- *)

type delta = {
  metric : string;
  base : float option;
  now : float option;
  pct : float;  (* signed percentage change, +: now is bigger; nan one-sided *)
  regressed : bool;
}

type diff = {
  baseline : record;
  latest : record;
  deltas : delta list;  (* gated figures first, then counters, then phases *)
  regressions : delta list;
}

(* The gated figures, each with the direction that regresses it: cost
   regresses by growing, throughput by dropping. *)
let gates =
  [
    ("wall_s", `Grows);
    ("solve.conflicts", `Grows);
    ("opt_match_per_s", `Drops);
    ("opt_firings_per_s", `Drops);
  ]

let pct_change base now =
  if base = 0.0 then if now = 0.0 then 0.0 else Float.infinity
  else (now -. base) /. base *. 100.0

let diff ?(threshold_pct = 15.0) ~baseline ~latest () =
  let figures r = ("wall_s", r.wall_s) :: r.counters in
  let delta metric base now =
    let pct =
      match (base, now) with
      | Some b, Some n -> pct_change b n
      | _ -> Float.nan
    in
    let regressed =
      match List.assoc_opt metric gates with
      | Some `Grows -> pct > threshold_pct
      | Some `Drops -> pct < -.threshold_pct
      | None -> false
    in
    { metric; base; now; pct; regressed }
  in
  (* Gated figures first, in gate order, then the others by name. *)
  let names =
    List.sort_uniq compare (List.map fst (figures baseline @ figures latest))
  in
  let counters =
    List.filter (fun m -> List.mem m names) (List.map fst gates)
    @ List.filter (fun m -> not (List.mem_assoc m gates)) names
    |> List.map (fun m ->
           delta m
             (List.assoc_opt m (figures baseline))
             (List.assoc_opt m (figures latest)))
  in
  let phases =
    List.filter_map
      (fun p ->
        List.find_opt (fun b -> b.phase = p.phase) baseline.phases
        |> Option.map (fun b ->
               delta ("phase:" ^ p.phase) (Some b.total_s) (Some p.total_s)))
      latest.phases
  in
  let deltas = counters @ phases in
  {
    baseline;
    latest;
    deltas;
    regressions = List.filter (fun d -> d.regressed) deltas;
  }

let render_diff ?(oc = stdout) d =
  let who r =
    Printf.sprintf "%s  %s  (%s, %d tasks, %d jobs)" r.git_rev r.timestamp
      r.label r.tasks r.jobs
  in
  Printf.fprintf oc "baseline: %s\nlatest:   %s\n" (who d.baseline)
    (who d.latest);
  let metric_w =
    List.fold_left (fun w x -> max w (String.length x.metric)) 6 d.deltas
  in
  Printf.fprintf oc "%-*s %14s %14s %9s\n" metric_w "metric" "baseline"
    "latest" "change";
  let value = function
    | Some v -> Printf.sprintf "%14.3f" v
    | None -> Printf.sprintf "%14s" "-"
  in
  List.iter
    (fun x ->
      let change =
        match (x.base, x.now) with
        | None, _ -> "only in latest"
        | _, None -> "only in baseline"
        | _ when Float.is_finite x.pct -> Printf.sprintf "%+.1f%%" x.pct
        | _ -> "new"
      in
      Printf.fprintf oc "%-*s %s %s %9s%s\n" metric_w x.metric (value x.base)
        (value x.now) change
        (if x.regressed then "  REGRESSION" else ""))
    d.deltas;
  if d.regressions = [] then
    Printf.fprintf oc "no regression beyond threshold\n"
  else
    Printf.fprintf oc "%d metric(s) regressed beyond threshold\n"
      (List.length d.regressions)
