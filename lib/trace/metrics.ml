(* A process-wide metrics registry: named counters and log-scale latency
   histograms. Histograms use quarter-power-of-two buckets (≈19% width),
   so percentile estimates carry at most ~9% relative error while the
   whole histogram is a small flat int array. Observation is mutex-per-
   instrument; instruments are registered once and then lock-free to look
   up via the returned handle. *)

(* --- Phase-timing switch ---

   Span durations flow into per-phase histograms only when this is on, so
   an un-instrumented run pays one atomic load per span site and nothing
   else. Tracing (event recording) is a separate switch in [Trace]. *)

let phase_timing = Atomic.make false
let set_phase_timing b = Atomic.set phase_timing b
let phase_timing_on () = Atomic.get phase_timing

(* --- Histograms --- *)

let lo_bound = 1e-7 (* 100ns: bucket 0 is "at or below" this *)
let ratio_log = Float.log 2.0 /. 4.0 (* quarter powers of two *)
let nbuckets = 144 (* covers up to ~5.5e3 s before clamping *)

type histogram = {
  hname : string;
  counts : int array;
  mutable sum : float;
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
  hlock : Mutex.t;
}

let bucket_of v =
  if v <= lo_bound then 0
  else
    let i = 1 + int_of_float (Float.log (v /. lo_bound) /. ratio_log) in
    if i >= nbuckets then nbuckets - 1 else i

let lower_bound i =
  if i = 0 then 0.0 else lo_bound *. Float.exp (ratio_log *. float_of_int (i - 1))

let upper_bound i = lo_bound *. Float.exp (ratio_log *. float_of_int i)

let observe h v =
  let v = Float.max 0.0 v in
  Mutex.lock h.hlock;
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if v < h.vmin || h.count = 1 then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  Mutex.unlock h.hlock

(* Percentile from the buckets: the value estimate for a bucket is the
   geometric mean of its bounds, clamped into the observed [min, max]. *)
let percentile h p =
  if h.count = 0 then 0.0
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)))
    in
    let rec go i acc =
      if i >= nbuckets then h.vmax
      else
        let acc = acc + h.counts.(i) in
        if acc >= rank then
          let est =
            if i = 0 then lo_bound /. 2.0
            else Float.sqrt (lower_bound i *. upper_bound i)
          in
          Float.min h.vmax (Float.max h.vmin est)
        else go (i + 1) acc
    in
    go 0 0
  end

(* --- Counters ---

   Every counter is one atomic int, so recording into it is one atomic
   operation. A counter is one of three kinds: a total grows by [add]; a
   peak is a high-water mark, moved by [raise_to]; a seconds counter sums
   durations, held as integer nanoseconds and reported in seconds. *)

type kind = Total | Peak | Seconds
type counter = { cname : string; kind : kind; cell : int Atomic.t }

let add c n = ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let add_seconds c s = add c (Float.to_int (Float.round (s *. 1e9)))

let rec raise_to c n =
  let cur = Atomic.get c.cell in
  if n > cur && not (Atomic.compare_and_set c.cell cur n) then raise_to c n

let counter_value c = Atomic.get c.cell
let seconds_of_ns n = float_of_int n /. 1e9

(* --- Gauges --- *)

type gauge = { gname : string; glevel : int Atomic.t }

let set_gauge g n = Atomic.set g.glevel n
let add_gauge g n = ignore (Atomic.fetch_and_add g.glevel n)

(* --- Registry --- *)

type instrument = Counter of counter | Histogram of histogram | Gauge of gauge

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

let with_registry f =
  Mutex.lock reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

let histogram name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> h
      | Some _ ->
          invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
      | None ->
          let h =
            {
              hname = name;
              counts = Array.make nbuckets 0;
              sum = 0.0;
              count = 0;
              vmin = 0.0;
              vmax = 0.0;
              hlock = Mutex.create ();
            }
          in
          Hashtbl.replace registry name (Histogram h);
          h)

let register kind name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) when c.kind = kind -> c
      | Some _ ->
          invalid_arg
            ("Metrics.counter: " ^ name ^ " is registered as another instrument")
      | None ->
          let c = { cname = name; kind; cell = Atomic.make 0 } in
          Hashtbl.replace registry name (Counter c);
          c)

let counter = register Total
let peak = register Peak
let seconds = register Seconds

let gauge name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g
      | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
      | None ->
          let g = { gname = name; glevel = Atomic.make 0 } in
          Hashtbl.replace registry name (Gauge g);
          g)

let observe_phase =
  (* The span hot path: one registry lookup per finished span, only when
     phase timing is on. *)
  fun phase dur -> observe (histogram phase) dur

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.cell 0
          | Gauge g -> Atomic.set g.glevel 0
          | Histogram h ->
              Mutex.lock h.hlock;
              Array.fill h.counts 0 nbuckets 0;
              h.sum <- 0.0;
              h.count <- 0;
              h.vmin <- 0.0;
              h.vmax <- 0.0;
              Mutex.unlock h.hlock)
        registry)

(* --- Counter tables: a record's counters declared once, as rows --- *)

module Table = struct
  type _ merge = Sum : int merge | Max : int merge | Sum_seconds : float merge

  type 'r row =
    | Row : {
        name : string;
        metric : string;
        merge : 'a merge;
        get : 'r -> 'a;
        set : 'r -> 'a -> unit;
        handle : counter;
      }
        -> 'r row

  (* Registered when the row is made, so every row exports (at zero)
     from the first scrape. *)
  let row (type a) name metric (merge : a merge) get set =
    let handle =
      match merge with
      | Sum -> counter metric
      | Max -> peak metric
      | Sum_seconds -> seconds metric
    in
    Row { name; metric; merge; get; set; handle }

  let via outer (Row r) =
    Row
      {
        r with
        get = (fun x -> r.get (outer x));
        set = (fun x v -> r.set (outer x) v);
      }

  let combine (type a) (merge : a merge) (x : a) (y : a) : a =
    match merge with Sum -> x + y | Max -> max x y | Sum_seconds -> x +. y

  let merge rows ~into r =
    List.iter
      (fun (Row c) -> c.set into (combine c.merge (c.get into) (c.get r)))
      rows

  let publish rows r =
    List.iter
      (fun (Row c) ->
        let v = c.get r in
        match c.merge with
        | Sum -> add c.handle v
        | Max -> raise_to c.handle v
        | Sum_seconds -> add_seconds c.handle v)
      rows

  type value = Count of int | Seconds of float

  let value (type a) (merge : a merge) (v : a) =
    match merge with Sum -> Count v | Max -> Count v | Sum_seconds -> Seconds v

  let report rows r =
    List.map (fun (Row c) -> (c.name, value c.merge (c.get r))) rows

  let names rows = List.map (fun (Row c) -> (c.name, c.metric)) rows

  let pp ?(nonzero = false) rows ppf r =
    report rows r
    |> List.filter (fun (_, v) ->
           not (nonzero && (v = Count 0 || v = Seconds 0.0)))
    |> List.iteri (fun i (name, v) ->
           Format.fprintf ppf "%s%s=%s" (if i = 0 then "" else " ") name
             (match v with
             | Count n -> string_of_int n
             | Seconds s -> Printf.sprintf "%.3f" s))

  let json_fields rows r =
    List.map
      (fun (name, v) ->
        (name, match v with Count n -> Json.Int n | Seconds s -> Json.Float s))
      (report rows r)
end

(* --- Snapshots and rendering --- *)

type hist_snapshot = {
  name : string;
  count : int;
  total_s : float;
  min_s : float;
  max_s : float;
  p50_s : float;
  p90_s : float;
  p95_s : float;
  p99_s : float;
}

type snapshot = {
  counters : (string * int) list;  (** totals, sorted by name *)
  seconds : (string * float) list;  (** seconds counters, sorted by name *)
  peaks : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : hist_snapshot list;  (** sorted by name *)
}

let snapshot_histogram h =
  Mutex.lock h.hlock;
  let s =
    {
      name = h.hname;
      count = h.count;
      total_s = h.sum;
      min_s = h.vmin;
      max_s = h.vmax;
      p50_s = percentile h 50.0;
      p90_s = percentile h 90.0;
      p95_s = percentile h 95.0;
      p99_s = percentile h 99.0;
    }
  in
  Mutex.unlock h.hlock;
  s

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

let snapshot () =
  let counters = ref [] and seconds = ref [] and peaks = ref [] in
  let gauges = ref [] and histograms = ref [] in
  with_registry (fun () ->
      Hashtbl.iter
        (fun name -> function
          | Counter c -> (
              let v = Atomic.get c.cell in
              match c.kind with
              | Total -> counters := (name, v) :: !counters
              | Peak -> peaks := (name, v) :: !peaks
              | Seconds -> seconds := (name, seconds_of_ns v) :: !seconds)
          | Gauge g -> gauges := (name, Atomic.get g.glevel) :: !gauges
          | Histogram h -> histograms := snapshot_histogram h :: !histograms)
        registry);
  {
    counters = by_name !counters;
    seconds = by_name !seconds;
    peaks = by_name !peaks;
    gauges = by_name !gauges;
    histograms =
      List.sort (fun a b -> compare a.name b.name) !histograms;
  }

let ms v = v *. 1e3

let render_table ?(oc = stdout) () =
  let snap = snapshot () in
  let live = List.filter (fun h -> h.count > 0) snap.histograms in
  if live = [] then output_string oc "no phase metrics recorded\n"
  else begin
    let nonzero =
      by_name
        (List.filter_map
           (fun (n, v) -> if v = 0 then None else Some (n, string_of_int v))
           (snap.counters @ snap.peaks)
        @ List.filter_map
            (fun (n, v) ->
              if v = 0.0 then None else Some (n, Printf.sprintf "%.3f" v))
            snap.seconds)
    in
    let gauges = List.filter (fun (_, v) -> v <> 0) snap.gauges in
    (* One name column for phases, counters and gauges alike. *)
    let name_w =
      List.fold_left
        (fun w n -> max w (String.length n))
        5
        (List.map (fun h -> h.name) live
        @ List.map fst nonzero @ List.map fst gauges)
    in
    Printf.fprintf oc "%-*s %9s %11s %10s %10s %10s %10s\n" name_w "phase"
      "count" "total(s)" "p50(ms)" "p90(ms)" "p95(ms)" "max(ms)";
    List.iter
      (fun h ->
        Printf.fprintf oc "%-*s %9d %11.3f %10.3f %10.3f %10.3f %10.3f\n"
          name_w h.name h.count h.total_s (ms h.p50_s) (ms h.p90_s)
          (ms h.p95_s) (ms h.max_s))
      live;
    if nonzero <> [] then begin
      Printf.fprintf oc "counters:\n";
      List.iter
        (fun (name, v) -> Printf.fprintf oc "  %-*s %12s\n" name_w name v)
        nonzero
    end;
    if gauges <> [] then begin
      Printf.fprintf oc "gauges:\n";
      List.iter
        (fun (name, v) -> Printf.fprintf oc "  %-*s %12d\n" name_w name v)
        gauges
    end
  end

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("total_s", Json.Float h.total_s);
      ("min_s", Json.Float h.min_s);
      ("max_s", Json.Float h.max_s);
      ("p50_s", Json.Float h.p50_s);
      ("p90_s", Json.Float h.p90_s);
      ("p95_s", Json.Float h.p95_s);
      ("p99_s", Json.Float h.p99_s);
    ]

(* --- Prometheus text exposition ---

   Rendered here because the raw bucket array and bounds are private to
   this module. Bucket lines are sparse (only buckets that hold samples),
   cumulative as the format requires, and closed by the mandatory +Inf
   bucket; instrument names map to [alive_<name with '.' -> '_'>], with
   the conventional [_total] suffix on counters. *)

let prom_sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_prometheus () =
  let buf = Buffer.create 4096 in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> counters := c :: !counters
          | Gauge g -> gauges := g :: !gauges
          | Histogram h -> hists := h :: !hists)
        registry);
  let by_name f = List.sort (fun a b -> compare (f a) (f b)) in
  List.iter
    (fun c ->
      let v = Atomic.get c.cell and n = "alive_" ^ prom_sanitize c.cname in
      let n, kind, v =
        match c.kind with
        | Total -> (n ^ "_total", "counter", string_of_int v)
        | Seconds -> (n ^ "_total", "counter", prom_float (seconds_of_ns v))
        | Peak -> (n, "gauge", string_of_int v)
      in
      Printf.bprintf buf "# TYPE %s %s\n%s %s\n" n kind n v)
    (by_name (fun c -> c.cname) !counters);
  List.iter
    (fun g ->
      let n = "alive_" ^ prom_sanitize g.gname in
      Printf.bprintf buf "# TYPE %s gauge\n%s %d\n" n n (Atomic.get g.glevel))
    (by_name (fun g -> g.gname) !gauges);
  List.iter
    (fun h ->
      Mutex.lock h.hlock;
      let counts = Array.copy h.counts in
      let sum = h.sum and count = h.count in
      Mutex.unlock h.hlock;
      let n = "alive_" ^ prom_sanitize h.hname in
      Printf.bprintf buf "# TYPE %s histogram\n" n;
      let acc = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            acc := !acc + c;
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" n
              (prom_float (upper_bound i))
              !acc
          end)
        counts;
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" n count;
      Printf.bprintf buf "%s_sum %s\n" n (prom_float sum);
      Printf.bprintf buf "%s_count %d\n" n count)
    (by_name (fun h -> h.hname) !hists);
  Buffer.contents buf

let to_json () =
  let snap = snapshot () in
  let ints l = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) l) in
  Json.Obj
    [
      ( "histograms",
        Json.Obj
          (List.filter_map
             (fun h -> if h.count > 0 then Some (h.name, hist_json h) else None)
             snap.histograms) );
      ("counters", ints snap.counters);
      ( "seconds",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) snap.seconds) );
      ("peaks", ints snap.peaks);
      ("gauges", ints snap.gauges);
    ]

(* The inverse of [to_json], for a registry scraped from another process
   (the daemon's [metrics] op). Missing sections read as empty. *)
let snapshot_of_json j =
  let section k conv =
    match Json.member k j with
    | Some (Json.Obj fields) ->
        by_name
          (List.filter_map
             (fun (n, v) -> Option.map (fun x -> (n, x)) (conv v))
             fields)
    | _ -> []
  in
  let hist name h =
    let f k =
      Option.value ~default:0.0 (Option.bind (Json.member k h) Json.to_float)
    in
    Option.map
      (fun count ->
        {
          name;
          count;
          total_s = f "total_s";
          min_s = f "min_s";
          max_s = f "max_s";
          p50_s = f "p50_s";
          p90_s = f "p90_s";
          p95_s = f "p95_s";
          p99_s = f "p99_s";
        })
      (Option.bind (Json.member "count" h) Json.to_int)
  in
  {
    counters = section "counters" Json.to_int;
    seconds = section "seconds" Json.to_float;
    peaks = section "peaks" Json.to_int;
    gauges = section "gauges" Json.to_int;
    histograms =
      List.filter_map
        (fun (n, h) -> hist n h)
        (section "histograms" Option.some);
  }
