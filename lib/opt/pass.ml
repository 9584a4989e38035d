type stats = (string * int) list

let dce (f : Ir.func) =
  let rec fixpoint f =
    let uses = Ir.uses_of f in
    let live (d : Ir.def) =
      Option.value ~default:0 (Hashtbl.find_opt uses d.Ir.name) > 0
    in
    let body' = List.filter live f.Ir.body in
    if List.length body' = List.length f.Ir.body then f
    else fixpoint { f with Ir.body = body' }
  in
  fixpoint f

let bump stats name =
  match List.assoc_opt name stats with
  | Some n -> (name, n + 1) :: List.remove_assoc name stats
  | None -> (name, 1) :: stats

type outcome = { func : Ir.func; stats : stats; saturated : bool }

(* One compiled tree per rule list, built lazily and shared: callers pass
   the same (immutable) list for every function of a module or workload
   batch, and the tree itself is immutable after [build], so it is safe
   to reuse across Engine.map worker domains. The mutex only guards the
   cache cell. *)
let compiled_mutex = Mutex.create ()
let compiled_cache : (Matcher.rule list * Compiled.t) option ref = ref None

let compiled_for rules =
  Mutex.lock compiled_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock compiled_mutex)
    (fun () ->
      match !compiled_cache with
      | Some (rs, t) when rs == rules -> t
      | _ ->
          let t = Compiled.build rules in
          compiled_cache := Some (rules, t);
          t)

(* A rule in a cyclic SCC of the rewrite graph may legitimately fire a
   few times at one site (each firing exposing the next match), but a
   ping-pong A→B→A loop at a fixed root would otherwise burn the whole
   budget at one definition. Per-(root, rule) cap; the global budget
   still backstops cycles that keep minting fresh names. *)
let cycle_fire_cap = 8

(* The worklist rebuild-and-rescan fixpoint (the discipline of Sense-VM's
   Peephole.hs: after a body-shrinking rewrite, re-examine from the
   affected position rather than restarting — and never skip the
   successor). Only definitions whose operand DAG changed are re-examined:
   the new and changed definitions themselves plus their users up to the
   compiled pattern depth, since a rewrite at %r can only create a match
   whose pattern reaches %r. A final full sweep re-validates the fixpoint
   before returning (also covering cost-guard interactions: a rewrite
   rejected as cost-increasing can become acceptable after later
   shrinking), so the result is exactly "no rule fires anywhere". *)
let run_guarded ~rules ?(max_rewrites = 1000) (f : Ir.func) =
  let tree = compiled_for rules in
  let stats = ref [] in
  let budget_out = ref false in
  let cycle_cut = ref false in
  let budget = ref max_rewrites in
  let fired_at : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref f in
  let cur_cost = ref (Cost.func_cost f) in
  let ctx = ref (Compiled.context tree f) in
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let push name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.add name queue
    end
  in
  (* Users of the given names in the current function, transitively up to
     the compiled pattern depth — the defs whose match status a change at
     those names can affect. *)
  let push_affected names =
    let users : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (d : Ir.def) ->
        List.iter
          (function
            | Ir.Var n ->
                Hashtbl.replace users n
                  (d.Ir.name
                  :: Option.value ~default:[] (Hashtbl.find_opt users n))
            | Ir.Const _ | Ir.Undef _ -> ())
          (Ir.operands_of d.Ir.inst))
      !cur.Ir.body;
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let rec up level frontier =
      List.iter
        (fun n ->
          if not (Hashtbl.mem seen n) then begin
            Hashtbl.replace seen n ();
            push n
          end)
        frontier;
      if level < Compiled.max_depth tree then
        let next =
          List.concat_map
            (fun n -> Option.value ~default:[] (Hashtbl.find_opt users n))
            frontier
        in
        if next <> [] then up (level + 1) next
    in
    up 0 names
  in
  (* Try to fire the first acceptable rule at [d]; [true] if the function
     changed. A match is acceptable when the rewrite evaluates, the
     DCE'd result does not cost more than the current function (a rule's
     target only beats its source when the matched interior dies, which
     shared subexpressions can prevent), and the cycle guard has budget. *)
  let try_fire (d : Ir.def) =
    if !budget = 0 then begin
      budget_out := true;
      false
    end
    else
      let fired =
        List.find_map
          (fun rule ->
            let key = (d.Ir.name, rule.Matcher.rule_name) in
            let fires =
              Option.value ~default:0 (Hashtbl.find_opt fired_at key)
            in
            if
              fires >= cycle_fire_cap
              && Compiled.in_cycle tree rule.Matcher.rule_name
            then begin
              (* The guard is cutting a live rewrite cycle short exactly
                 when the capped rule still matches — report that the same
                 way budget exhaustion does. *)
              if Option.is_some (Matcher.match_at rule !cur d.Ir.name) then
                cycle_cut := true;
              None
            end
            else
              match Matcher.match_at rule !cur d.Ir.name with
              | None -> None
              | Some m -> (
                  match Matcher.rewrite rule !cur m with
                  | None -> None
                  | Some f' ->
                      let f' = dce f' in
                      if Cost.func_cost f' > !cur_cost then None
                      else Some (rule, key, f')))
          (Compiled.candidates !ctx d)
      in
      match fired with
      | None -> false
      | Some (rule, key, f') ->
          decr budget;
          stats := bump !stats rule.Matcher.rule_name;
          Hashtbl.replace fired_at key
            (1 + Option.value ~default:0 (Hashtbl.find_opt fired_at key));
          let before = !cur in
          cur := f';
          cur_cost := Cost.func_cost f';
          ctx := Compiled.context tree f';
          (* Defs that are new or redefined relative to [before] (covers
             the in-place root replacement, freshly emitted target defs,
             and every user rewritten by a copy-root substitution). *)
          let old_defs : (string, Ir.inst) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun (d : Ir.def) -> Hashtbl.replace old_defs d.Ir.name d.Ir.inst)
            before.Ir.body;
          let changed =
            List.filter_map
              (fun (d : Ir.def) ->
                match Hashtbl.find_opt old_defs d.Ir.name with
                | Some inst when inst = d.Ir.inst -> None
                | _ -> Some d.Ir.name)
              f'.Ir.body
          in
          push_affected changed;
          true
  in
  let rec process () =
    match Queue.take_opt queue with
    | Some name ->
        Hashtbl.remove queued name;
        (match Compiled.find_def !ctx name with
        | None -> () (* rewritten away or DCE'd since it was queued *)
        | Some d -> ignore (try_fire d));
        if not !budget_out then process ()
    | None ->
        (* Fixpoint verification sweep: if anything can still fire, fire
           it (seeding the worklist with its fallout) and keep going. *)
        if (not !budget_out) && List.exists try_fire !cur.Ir.body then
          process ()
  in
  List.iter (fun (d : Ir.def) -> push d.Ir.name) f.Ir.body;
  process ();
  {
    func = dce !cur;
    stats = List.sort (fun (_, a) (_, b) -> Int.compare b a) !stats;
    saturated = !budget_out || !cycle_cut;
  }

let run ~rules ?max_rewrites (f : Ir.func) =
  let o = run_guarded ~rules ?max_rewrites f in
  (o.func, o.stats)

let merge_stats a b =
  List.fold_left
    (fun acc (name, n) ->
      match List.assoc_opt name acc with
      | Some m -> (name, m + n) :: List.remove_assoc name acc
      | None -> (name, n) :: acc)
    a b
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let run_module ~rules ?max_rewrites funcs =
  let results = List.map (run ~rules ?max_rewrites) funcs in
  ( List.map fst results,
    List.fold_left (fun acc (_, s) -> merge_stats acc s) [] results )
