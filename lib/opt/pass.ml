type stats = (string * int) list

(* One backward sweep keeps exactly the defs [ret] reaches: in a
   def-before-use body every user of a def is visited before the def. *)
let dce (f : Ir.func) =
  let live = Hashtbl.create 64 in
  let use = function
    | Ir.Var n -> Hashtbl.replace live n ()
    | Ir.Const _ | Ir.Undef _ -> ()
  in
  use f.Ir.ret;
  let body, dropped =
    List.fold_left
      (fun (body, dropped) (d : Ir.def) ->
        if Hashtbl.mem live d.Ir.name then begin
          List.iter use (Ir.operands_of d.Ir.inst);
          (d :: body, dropped)
        end
        else (body, true))
      ([], false) (List.rev f.Ir.body)
  in
  if dropped then { f with Ir.body = body } else f

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

let count tbl n = Option.value ~default:0 (Hashtbl.find_opt tbl n)
let add tbl k n = Hashtbl.replace tbl n (k + count tbl n)

(* A planned rewrite of a dead-free function, scored from use counts
   (operands plus [ret], as [Ir.uses_of]) before anything is spliced:
   [delta] is the change of every count it touches, [dead] the defs whose
   count reaches 0 (the old root's operands, new defs nobody uses, and
   what only they used), [cost] the change of [Cost.func_cost]. Exact
   because the def-use graph is acyclic and every def reaches [ret]. *)
type score = {
  delta : (string, int) Hashtbl.t;
  dead : (string, unit) Hashtbl.t;
  cost : int;
}

let score uses ctx (root : Ir.def) (p : Matcher.plan) =
  let delta = Hashtbl.create 8 and dead = Hashtbl.create 8 in
  let operands (d : Ir.def) =
    List.filter_map
      (function Ir.Var n -> Some n | Ir.Const _ | Ir.Undef _ -> None)
      (Ir.operands_of d.Ir.inst)
  in
  let planned =
    match p.Matcher.replacement with
    | Matcher.Inst r -> p.Matcher.defs @ [ r ]
    | Matcher.Copy _ -> p.Matcher.defs
  in
  List.iter (fun d -> List.iter (add delta 1) (operands d)) planned;
  (match p.Matcher.replacement with
  | Matcher.Copy (Ir.Var v) -> add delta (count uses root.Ir.name) v
  | Matcher.Copy (Ir.Const _ | Ir.Undef _) | Matcher.Inst _ -> ());
  List.iter (add delta (-1)) (operands root);
  let def_of n =
    match
      List.find_opt (fun (d : Ir.def) -> String.equal d.Ir.name n) planned
    with
    | Some d -> Some d
    | None when String.equal n root.Ir.name -> None
    | None -> Compiled.find_def ctx n
  in
  let cost =
    ref
      (List.fold_left
         (fun a (d : Ir.def) -> a + Cost.inst_cost d.Ir.inst)
         0 planned
      - Cost.inst_cost root.Ir.inst)
  in
  let rec release n =
    if (not (Hashtbl.mem dead n)) && count uses n + count delta n = 0 then
      match def_of n with
      | None -> ()
      | Some d ->
          Hashtbl.replace dead n ();
          cost := !cost - Cost.inst_cost d.Ir.inst;
          List.iter
            (fun m ->
              add delta (-1) m;
              release m)
            (operands d)
  in
  List.iter release (operands root);
  List.iter (fun (d : Ir.def) -> release d.Ir.name) p.Matcher.defs;
  { delta; dead; cost = !cost }

(* The worklist rescan fixpoint (the discipline of Sense-VM's Peephole.hs:
   after a body-shrinking rewrite, re-examine from the affected position
   rather than restarting — and never skip the successor). Only
   definitions whose operand DAG changed are re-examined: the new and
   changed definitions themselves plus their users up to the compiled
   pattern depth, since a rewrite at %r can only create a match whose
   pattern reaches %r. A final sweep re-validates the fixpoint before
   returning (also covering cost-guard interactions: a rewrite rejected as
   cost-increasing can become acceptable after later shrinking), so the
   result is exactly "no rule fires anywhere"; it re-tries only the defs
   whose last try could come out differently (see [retry]).

   A candidate is accepted when the DCE'd result does not cost more than
   the current function. Until the first accepted rewrite the function may
   hold dead code, so a candidate is spliced, DCE'd and costed whole. From
   then on the function is dead-free and the pass keeps its use counts: a
   candidate is scored from them (see [score]), only accepted ones are
   spliced, and the per-function state (use counts, cost, the compiled
   context's name table) is patched rather than rebuilt. *)
let run_guarded ~rules ?(max_rewrites = 1000) (f : Ir.func) =
  let tree = compiled_for rules in
  let stats = ref [] in
  let budget_out = ref false in
  let cycle_cut = ref false in
  let budget = ref max_rewrites in
  (* Firings per (def, rule), kept for the rules in a cyclic SCC only. *)
  let fired_at : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref f in
  let cur_cost = ref (Cost.func_cost f) in
  let ctx = ref (Compiled.context tree f) in
  let uses = ref None in
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let push name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.add name queue
    end
  in
  (* Users of the given names, transitively up to the compiled pattern
     depth — the defs whose match status a change at those names can
     affect. [body] is the current body from the first of [names] on:
     users follow their defs, so it holds every user reached. *)
  let push_affected body names =
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
      body;
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
  (* Install [f'], the accepted rewrite of [!cur], and queue what it
     affects: the defs that are new or redefined relative to the
     pre-rewrite context (the in-place root replacement, fresh target
     defs, and every user rewritten by a copy-root substitution), in body
     order. [Matcher.splice] and [dce] keep every other def as the same
     physical value. Returns the defs to re-index. *)
  let install f' =
    let old = !ctx in
    let fresh (d : Ir.def) =
      match Compiled.find_def old d.Ir.name with
      | Some o -> o != d
      | None -> true
    in
    let rec from_first = function
      | d :: rest when not (fresh d) -> from_first rest
      | body -> body
    in
    let suffix = from_first f'.Ir.body in
    let defs = List.filter fresh suffix in
    let changed =
      List.filter_map
        (fun (d : Ir.def) ->
          match Compiled.find_def old d.Ir.name with
          | Some o when o.Ir.inst = d.Ir.inst -> None
          | _ -> Some d.Ir.name)
        defs
    in
    cur := f';
    push_affected suffix changed;
    defs
  in
  (* The defs whose last try could come out differently on a later one:
     it ended in anything but shape failures (an unproven precondition, a
     plan that does not evaluate, the cost guard, the cycle cap, a firing).
     A try that every candidate refused on shape alone is refused again
     until a def within [max_depth] of its root changes, and
     [push_affected] requeues the def then. *)
  let retry : (string, unit) Hashtbl.t = Hashtbl.create 64 in
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
      let changeable = ref false in
      let fired =
        List.find_map
          (fun rule ->
            let cyclic = Compiled.in_cycle tree rule.Matcher.rule_name in
            if
              cyclic
              && count fired_at (d.Ir.name, rule.Matcher.rule_name)
                 >= cycle_fire_cap
            then begin
              (* The guard is cutting a live rewrite cycle short exactly
                 when the capped rule still matches — report that the same
                 way budget exhaustion does. *)
              changeable := true;
              if Result.is_ok (Compiled.match_rule !ctx rule d) then
                cycle_cut := true;
              None
            end
            else
              match Compiled.match_rule !ctx rule d with
              | Error Matcher.Shape -> None
              | Error Matcher.Precondition ->
                  changeable := true;
                  None
              | Ok m -> (
                  changeable := true;
                  match (Matcher.plan rule !cur m, !uses) with
                  | None, _ -> None
                  | Some p, None ->
                      let f' =
                        dce (Matcher.splice ~dead:(fun _ -> false) !cur p)
                      in
                      let c = Cost.func_cost f' in
                      if c > !cur_cost then None
                      else Some (rule, cyclic, `Whole (f', c))
                  | Some p, Some u ->
                      let s = score u !ctx d p in
                      if s.cost > 0 then None
                      else Some (rule, cyclic, `Scored (u, p, s))))
          (Compiled.candidates !ctx d)
      in
      (* A def that fires stays in [retry]: its rewrite may leave its own
         instruction as it was, and then [install] does not requeue it. *)
      if !changeable then Hashtbl.replace retry d.Ir.name ()
      else Hashtbl.remove retry d.Ir.name;
      match fired with
      | None -> false
      | Some (rule, cyclic, edit) ->
          decr budget;
          stats := bump !stats rule.Matcher.rule_name;
          if cyclic then add fired_at 1 (d.Ir.name, rule.Matcher.rule_name);
          (match edit with
          | `Whole (f', c) ->
              ignore (install f');
              cur_cost := c;
              ctx := Compiled.context tree f';
              uses := Some (Ir.uses_of f')
          | `Scored (u, p, s) ->
              let f' = Matcher.splice ~dead:(Hashtbl.mem s.dead) !cur p in
              let defs = install f' in
              let removed =
                Hashtbl.fold (fun n () acc -> n :: acc) s.dead
                  (match p.Matcher.replacement with
                  | Matcher.Copy _ -> [ p.Matcher.root ]
                  | Matcher.Inst _ -> [])
              in
              Compiled.update !ctx f' ~removed ~defs;
              Hashtbl.iter (fun n k -> add u k n) s.delta;
              List.iter (Hashtbl.remove u) removed;
              cur_cost := !cur_cost + s.cost);
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
           it (seeding the worklist with its fallout) and keep going. Only
           the defs in [retry] can, so only they are tried, in body order;
           with no budget left the first try would have ended the pass. *)
        if !budget = 0 then budget_out := !cur.Ir.body <> []
        else if
          List.exists
            (fun (d : Ir.def) -> Hashtbl.mem retry d.Ir.name && try_fire d)
            !cur.Ir.body
        then process ()
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
