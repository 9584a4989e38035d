(* Self time per span phase.

   A span's self time is its duration minus the time its direct children
   cover. Nesting is rebuilt per domain from start times and durations, so
   it works on any list of finished events: the global trace buffers or a
   daemon's captured request spans. Summed over every phase, the self
   times equal the summed duration of the root spans, which is returned
   alongside so a caller can name what the spans do not cover. *)

module Trace = Alive_trace.Trace

let eps = 1e-9

let self_times (events : Trace.event list) =
  let self : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  let add phase d =
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt self phase) in
    Hashtbl.replace self phase (s +. d, n + 1)
  in
  let roots = ref 0.0 in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (e : Trace.event) -> e.domain) events)
  in
  List.iter
    (fun dom ->
      let evs =
        List.filter (fun (e : Trace.event) -> e.domain = dom) events
        |> List.stable_sort (fun (a : Trace.event) (b : Trace.event) ->
               match Float.compare a.start b.start with
               | 0 -> Float.compare b.dur a.dur
               | c -> c)
      in
      let stack = ref [] in
      let close ((e : Trace.event), kids) = add e.phase (e.dur -. !kids) in
      let rec pop_ended start =
        match !stack with
        | (((top : Trace.event), _) as frame) :: rest
          when top.start +. top.dur <= start +. eps ->
            close frame;
            stack := rest;
            pop_ended start
        | _ -> ()
      in
      List.iter
        (fun (e : Trace.event) ->
          pop_ended e.start;
          (match !stack with
          | (_, kids) :: _ -> kids := !kids +. e.dur
          | [] -> roots := !roots +. e.dur);
          stack := (e, ref 0.0) :: !stack)
        evs;
      List.iter close !stack)
    domains;
  let phases =
    Hashtbl.fold (fun phase (s, n) acc -> (phase, s, n) :: acc) self []
  in
  (List.sort compare phases, !roots)
