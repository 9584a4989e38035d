(* Sample statistics and operation accounting for the benchmark.

   Latency figures are a median plus one tail percentile. The tail is the
   highest of the candidate percentiles that still has at least
   [tail_min_beyond] samples above it, so a tail figure never rests on a
   handful of observations: at 218 samples that is p95 (10.9 samples
   beyond), at 1000 it is p99. *)

let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
let tail_min_beyond = 10.0

let tail_percentile n =
  match
    List.find_opt
      (fun p -> float n *. (1.0 -. (p /. 100.0)) >= tail_min_beyond -. 1e-9)
      tail_candidates
  with
  | Some p -> p
  | None -> 50.0

(* Nearest-rank percentile of an unsorted sample; 0 when empty. *)
let percentile samples p =
  match samples with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One batch of operations, such as a pass over a workload's inputs, in
   the order they ran. A failed operation counts as attempted and failed
   and leaves no latency sample: it is missing from every percentile
   rather than counted as fast. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : float option list;  (* newest first; None = failed *)
}

let tally () = { attempted = 0; failed = 0; samples = [] }

let record t ~ok latency =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  t.samples <- (if ok then Some latency else None) :: t.samples

(* Successful operations' latencies, in the order they ran. *)
let latencies t = List.rev (List.filter_map Fun.id t.samples)

let p50 t = percentile (latencies t) 50.0

let tail t =
  let l = latencies t in
  percentile l (tail_percentile (List.length l))

(* Successful operations per second of their summed time. *)
let rate t =
  let l = latencies t in
  match l with
  | [] -> 0.0
  | _ -> float (List.length l) /. List.fold_left ( +. ) 0.0 l

(* [best_chunks ~chunk_s passes]: passes that ran the same operations in
   the same order are cut into runs of consecutive operations that took at
   least [chunk_s] seconds in the first pass (an operation that long is a
   run of its own), and each run is taken from the pass in which it was
   fastest. Returns the operations of those runs, in order. A run of tens
   of milliseconds holds many minor collections and the major slices that
   follow them, so its collection work is about the same in every pass
   and its best time still carries it. *)
let best_chunks ~chunk_s passes =
  let runs = List.map (fun t -> Array.of_list (List.rev t.samples)) passes in
  let first = match runs with [] -> [||] | r :: _ -> r in
  let n = Array.length first in
  if List.exists (fun r -> Array.length r <> n) runs then
    invalid_arg "Stats.best_chunks: passes of different lengths";
  let time r i = Option.value ~default:0.0 r.(i) in
  let out = tally () in
  let rec go lo =
    if lo < n then begin
      let rec extend hi spent =
        if hi >= n || spent >= chunk_s then hi
        else extend (hi + 1) (spent +. time first hi)
      in
      let hi = extend lo 0.0 in
      let cost r =
        let c = ref 0.0 in
        for i = lo to hi - 1 do
          c := !c +. time r i
        done;
        !c
      in
      let best =
        List.fold_left (fun b r -> if cost r < cost b then r else b) first runs
      in
      for i = lo to hi - 1 do
        match best.(i) with
        | Some l -> record out ~ok:true l
        | None -> record out ~ok:false 0.0
      done;
      go hi
    end
  in
  go 0;
  out
