(* CDCL SAT solver. Literal encoding: variable v yields literals 2v (positive)
   and 2v+1 (negative); negation is xor 1. Per-variable assignment is stored
   as 0 (true), 1 (false) or 2 (unassigned), so the value of a literal is
   [assign.(var) lxor sign] with any result >= 2 meaning unassigned — the
   MiniSat trick that keeps the propagation inner loop branch-light. *)

type lit = int

let mk_lit v sign = (2 * v) + if sign then 0 else 1
let neg l = l lxor 1
let var l = l lsr 1
let is_pos l = l land 1 = 0

let pp_lit ppf l =
  Format.fprintf ppf "%s%d" (if is_pos l then "" else "-") (var l)

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

(* Growable vector of clauses; watch lists and clause databases. *)
module Cvec = struct
  type t = { mutable data : clause array; mutable size : int }

  let dummy =
    { lits = [||]; activity = 0.0; learnt = false; deleted = false }

  let create () = { data = Array.make 4 dummy; size = 0 }

  let push t c =
    if t.size = Array.length t.data then begin
      let data = Array.make (2 * t.size) dummy in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    t.data.(t.size) <- c;
    t.size <- t.size + 1

  let clear t = t.size <- 0
end

(* Watch list: clauses paired with a "blocker" literal (some other literal of
   the clause, typically the other watch). If the blocker is already true the
   clause is satisfied and propagation skips it without touching the clause's
   memory — most watched clauses are skipped this way (MiniSat 2.2). *)
module Wvec = struct
  type t = {
    mutable cls : clause array;
    mutable blk : int array;
    mutable size : int;
  }

  let create () = { cls = Array.make 4 Cvec.dummy; blk = Array.make 4 0; size = 0 }

  let push t c b =
    if t.size = Array.length t.cls then begin
      let cls = Array.make (2 * t.size) Cvec.dummy in
      Array.blit t.cls 0 cls 0 t.size;
      t.cls <- cls;
      let blk = Array.make (2 * t.size) 0 in
      Array.blit t.blk 0 blk 0 t.size;
      t.blk <- blk
    end;
    t.cls.(t.size) <- c;
    t.blk.(t.size) <- b;
    t.size <- t.size + 1
end

type t = {
  mutable nvars : int;
  mutable assign : Bytes.t; (* per var: 0 true, 1 false, 2 unassigned *)
  mutable level : int array;
  mutable reason : clause array; (* Cvec.dummy = no reason (decision/fact) *)
  mutable act : float array;
  mutable phase : Bytes.t; (* saved phase per var: 0 true, 1 false *)
  mutable watches : Wvec.t array; (* indexed by literal *)
  heap : Heap.t;
  clauses : Cvec.t;
  learnts : Cvec.t;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail boundary per decision level *)
  mutable trail_lim_size : int; (* = current decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable max_learnts : float;
  mutable seen : Bytes.t; (* scratch for conflict analysis *)
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let create () =
  {
    nvars = 0;
    assign = Bytes.make 64 '\002';
    level = Array.make 64 0;
    reason = Array.make 64 Cvec.dummy;
    act = Array.make 64 0.0;
    phase = Bytes.make 64 '\001';
    watches = Array.init 128 (fun _ -> Wvec.create ());
    heap = Heap.create ();
    clauses = Cvec.create ();
    learnts = Cvec.create ();
    trail = Array.make 64 0;
    trail_size = 0;
    trail_lim = Array.make 64 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    max_learnts = 1000.0;
    seen = Bytes.make 64 '\000';
  }

let nvars t = t.nvars

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  if v >= Array.length t.level then begin
    let n = 2 * (v + 1) in
    let grow_bytes b init =
      let b' = Bytes.make n init in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    in
    t.assign <- grow_bytes t.assign '\002';
    t.phase <- grow_bytes t.phase '\001';
    t.seen <- grow_bytes t.seen '\000';
    let level = Array.make n 0 in
    Array.blit t.level 0 level 0 v;
    t.level <- level;
    let reason = Array.make n Cvec.dummy in
    Array.blit t.reason 0 reason 0 v;
    t.reason <- reason;
    let act = Array.make n 0.0 in
    Array.blit t.act 0 act 0 v;
    t.act <- act;
    let watches = Array.init (2 * n) (fun _ -> Wvec.create ()) in
    Array.blit t.watches 0 watches 0 (2 * v);
    t.watches <- watches;
    let trail = Array.make n 0 in
    Array.blit t.trail 0 trail 0 t.trail_size;
    t.trail <- trail
  end;
  Heap.insert t.heap ~act:t.act v;
  v

(* Value of a literal: 0 = true, 1 = false, >= 2 = unassigned. *)
let lit_value t l = Char.code (Bytes.unsafe_get t.assign (l lsr 1)) lxor (l land 1)

let decision_level t = t.trail_lim_size

(* Open a new decision level at the current trail position. *)
let push_level t =
  if t.trail_lim_size = Array.length t.trail_lim then begin
    let lim = Array.make (2 * t.trail_lim_size) 0 in
    Array.blit t.trail_lim 0 lim 0 t.trail_lim_size;
    t.trail_lim <- lim
  end;
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

let var_bump t v =
  t.act.(v) <- t.act.(v) +. t.var_inc;
  if t.act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.act.(i) <- t.act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100;
    Heap.rebuild t.heap ~act:t.act
  end;
  Heap.decrease t.heap ~act:t.act v

let var_decay_activity t = t.var_inc <- t.var_inc *. var_decay

let cla_bump t c =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to t.learnts.Cvec.size - 1 do
      let c = t.learnts.Cvec.data.(i) in
      c.activity <- c.activity *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* [reason] is the implying clause, or [Cvec.dummy] for decisions/facts. *)
let enqueue t l reason =
  Bytes.unsafe_set t.assign (l lsr 1) (Char.chr (l land 1));
  t.level.(var l) <- decision_level t;
  t.reason.(var l) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let watch t l c b = Wvec.push t.watches.(l) c b

(* Propagate all enqueued facts; return the conflicting clause, if any. *)
let propagate t =
  let conflict = ref None in
  while !conflict = None && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    (* Clauses with watched literal ¬l (stored under [watches.(l)]) must find
       a new watch or propagate/conflict. *)
    let ws = t.watches.(l) in
    let n = ws.Wvec.size in
    let j = ref 0 in
    (try
       for i = 0 to n - 1 do
         let b = ws.Wvec.blk.(i) in
         if lit_value t b = 0 then begin
           (* Blocker already true: satisfied, skip without touching the
              clause's memory. *)
           ws.Wvec.cls.(!j) <- ws.Wvec.cls.(i);
           ws.Wvec.blk.(!j) <- b;
           incr j
         end
         else begin
           let c = ws.Wvec.cls.(i) in
           if c.deleted then () (* drop lazily *)
           else begin
             let lits = c.lits in
             (* Ensure the false literal is at position 1. *)
             if lits.(0) = neg l then begin
               lits.(0) <- lits.(1);
               lits.(1) <- neg l
             end;
             if lit_value t lits.(0) = 0 then begin
               (* Clause already satisfied; keep the watch. *)
               ws.Wvec.cls.(!j) <- c;
               ws.Wvec.blk.(!j) <- lits.(0);
               incr j
             end
             else begin
               (* Look for a non-false literal to watch. *)
               let len = Array.length lits in
               let k = ref 2 in
               while !k < len && lit_value t lits.(!k) = 1 do
                 incr k
               done;
               if !k < len then begin
                 lits.(1) <- lits.(!k);
                 lits.(!k) <- neg l;
                 watch t (neg lits.(1)) c lits.(0)
               end
               else if lit_value t lits.(0) = 1 then begin
                 (* Conflict: copy the remaining watches and bail out. *)
                 ws.Wvec.cls.(!j) <- c;
                 ws.Wvec.blk.(!j) <- lits.(0);
                 incr j;
                 for i' = i + 1 to n - 1 do
                   ws.Wvec.cls.(!j) <- ws.Wvec.cls.(i');
                   ws.Wvec.blk.(!j) <- ws.Wvec.blk.(i');
                   incr j
                 done;
                 conflict := Some c;
                 raise Exit
               end
               else begin
                 (* Unit: propagate lits.(0). *)
                 ws.Wvec.cls.(!j) <- c;
                 ws.Wvec.blk.(!j) <- lits.(0);
                 incr j;
                 enqueue t lits.(0) c
               end
             end
           end
         end
       done
     with Exit -> ());
    ws.Wvec.size <- !j
  done;
  !conflict

(* First-UIP conflict analysis. Returns the learnt clause (asserting literal
   first) and the backtrack level. *)
let analyze t confl =
  let learnt = ref [] in
  let seen = t.seen in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let btlevel = ref 0 in
  let index = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c != Cvec.dummy) (* every inner resolvent has a reason *);
    if c.learnt then cla_bump t c;
    let lits = c.lits in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
      let v = var q in
      if Bytes.get seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        var_bump t v;
        if t.level.(v) >= decision_level t then incr counter
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select the next literal on the trail to resolve on. *)
    let rec next_seen i =
      if Bytes.get seen (var t.trail.(i)) = '\001' then i else next_seen (i - 1)
    in
    index := next_seen !index;
    p := t.trail.(!index);
    confl := t.reason.(var !p);
    Bytes.set seen (var !p) '\000';
    index := !index - 1;
    decr counter;
    if !counter = 0 then continue := false
  done;
  (* Clause minimization: a tail literal q is redundant if its reason's other
     literals are all already in the clause (seen) or fixed at level 0. All
     tail literals still have their seen bit set here. *)
  let tail = !learnt in
  let redundant q =
    let c = t.reason.(var q) in
    c != Cvec.dummy
    && Array.for_all
         (fun r ->
           r = neg q
           || Bytes.get seen (var r) = '\001'
           || t.level.(var r) = 0)
         c.lits
  in
  let minimized = List.filter (fun q -> not (redundant q)) tail in
  (* Recompute the backtrack level from the surviving literals. *)
  let btlevel =
    List.fold_left (fun acc q -> max acc (t.level.(var q))) 0 minimized
  in
  let learnt = neg !p :: minimized in
  List.iter (fun q -> Bytes.set seen (var q) '\000') tail;
  (learnt, btlevel)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let b = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto b do
      let l = t.trail.(i) in
      let v = var l in
      Bytes.set t.phase v (if is_pos l then '\000' else '\001');
      Bytes.set t.assign v '\002';
      t.reason.(v) <- Cvec.dummy;
      if not (Heap.in_heap t.heap v) then Heap.insert t.heap ~act:t.act v
    done;
    t.trail_size <- b;
    t.qhead <- b;
    t.trail_lim_size <- lvl
  end

let add_clause t lits =
  if t.ok then begin
    cancel_until t 0;
    (* Remove duplicates and false-at-level-0 literals; detect tautologies
       and already-satisfied clauses. *)
    let lits = List.sort_uniq Int.compare lits in
    let tautology =
      List.exists (fun l -> List.memq (neg l) lits) lits
      || List.exists (fun l -> lit_value t l = 0 && t.level.(var l) = 0) lits
    in
    if not tautology then begin
      let lits =
        List.filter (fun l -> not (lit_value t l = 1 && t.level.(var l) = 0)) lits
      in
      match lits with
      | [] -> t.ok <- false
      | [ l ] ->
          assert (decision_level t = 0);
          if lit_value t l = 1 then t.ok <- false
          else if lit_value t l >= 2 then begin
            enqueue t l Cvec.dummy;
            if propagate t <> None then t.ok <- false
          end
      | l0 :: l1 :: _ ->
          let c =
            {
              lits = Array.of_list lits;
              activity = 0.0;
              learnt = false;
              deleted = false;
            }
          in
          Cvec.push t.clauses c;
          watch t (neg l0) c l1;
          watch t (neg l1) c l0
    end
  end

(* Install a learnt clause: watch the asserting literal and a literal from
   the backtrack level, then assert. *)
let record_learnt t lits =
  match lits with
  | [] -> t.ok <- false
  | [ l ] -> enqueue t l Cvec.dummy
  | l0 :: _ ->
      let arr = Array.of_list lits in
      (* Position 1 must hold a literal of the highest remaining level so the
         watch invariant holds after backtracking. *)
      let best = ref 1 in
      for i = 2 to Array.length arr - 1 do
        if t.level.(var arr.(i)) > t.level.(var arr.(!best)) then best := i
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!best);
      arr.(!best) <- tmp;
      let c = { lits = arr; activity = 0.0; learnt = true; deleted = false } in
      Cvec.push t.learnts c;
      cla_bump t c;
      watch t (neg arr.(0)) c arr.(1);
      watch t (neg arr.(1)) c arr.(0);
      enqueue t l0 c

let reduce_db t =
  let n = t.learnts.Cvec.size in
  let arr = Array.sub t.learnts.Cvec.data 0 n in
  Array.sort (fun a b -> Float.compare b.activity a.activity) arr;
  let locked c =
    Array.length c.lits > 0
    &&
    let l = c.lits.(0) in
    lit_value t l = 0 && t.reason.(var l) == c
  in
  let keep = n / 2 in
  Cvec.clear t.learnts;
  Array.iteri
    (fun i c ->
      if i < keep || locked c || Array.length c.lits <= 2 then
        Cvec.push t.learnts c
      else c.deleted <- true)
    arr

let luby y x =
  (* The Luby restart sequence 1 1 2 1 1 2 4 ..., MiniSat's formulation. *)
  let rec size sz seq =
    if sz < x + 1 then size ((2 * sz) + 1) (seq + 1) else (sz, seq)
  in
  let rec go sz seq x =
    if sz - 1 = x then seq else go ((sz - 1) / 2) (seq - 1) (x mod ((sz - 1) / 2))
  in
  let sz, seq = size 1 0 in
  y ** float_of_int (go sz seq x)

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.heap then -1
    else
      let v = Heap.remove_max t.heap ~act:t.act in
      if Bytes.get t.assign v = '\002' && v < t.nvars then v else go ()
  in
  go ()

exception Result of bool
exception Deadline_hit
exception Cap_hit

(* Search with a conflict budget; raises [Result] on a definite answer,
   returns () when the budget is exhausted (restart). The budget is checked
   at the next decision, so a run of conflicts can overshoot it; [cap] is
   the hard bound: a conflict past it is not counted and raises [Cap_hit].
   The wall-clock deadline is sampled every 128 conflicts — cheap enough to
   be noise, and conflicts are the only place a hard instance spends
   unbounded time. *)
let search t ~budget ~cap ~deadline =
  let conflict_count = ref 0 in
  while true do
    match propagate t with
    | Some confl ->
        if !conflict_count >= cap then raise Cap_hit;
        t.conflicts <- t.conflicts + 1;
        incr conflict_count;
        if
          !conflict_count land 127 = 0
          && deadline > 0.0
          && Unix.gettimeofday () > deadline
        then raise Deadline_hit;
        if decision_level t = 0 then begin
          t.ok <- false;
          raise (Result false)
        end;
        let learnt, btlevel = analyze t confl in
        cancel_until t btlevel;
        record_learnt t learnt;
        var_decay_activity t;
        cla_decay_activity t
    | None ->
        if !conflict_count >= budget then begin
          cancel_until t 0;
          raise Exit
        end;
        if float_of_int t.learnts.Cvec.size >= t.max_learnts then reduce_db t;
        let v = pick_branch_var t in
        if v < 0 then raise (Result true);
        t.decisions <- t.decisions + 1;
        push_level t;
        let sign = Bytes.get t.phase v = '\000' in
        enqueue t (mk_lit v sign) Cvec.dummy
  done

type budget_reason = Conflicts | Deadline

exception Budget_exceeded of budget_reason

let solve_untraced ?(conflict_limit = max_int) ?deadline t =
  if not t.ok then false
  else begin
    cancel_until t 0;
    let deadline = Option.value deadline ~default:0.0 in
    let start_conflicts = t.conflicts in
    let result = ref None in
    let restarts = ref 0 in
    while !result = None do
      if deadline > 0.0 && Unix.gettimeofday () > deadline then begin
        cancel_until t 0;
        raise (Budget_exceeded Deadline)
      end;
      (* Each restart's search may spend at most the conflicts left, so the
         call spends at most [conflict_limit]; with no limit that never
         shortens a restart. With none left, the search still decides until
         its first conflict. *)
      let left = conflict_limit - (t.conflicts - start_conflicts) in
      let budget =
        max 1 (min left (int_of_float (luby 2.0 !restarts *. 100.0)))
      in
      incr restarts;
      t.restarts <- t.restarts + 1;
      t.max_learnts <-
        Float.max t.max_learnts
          (float_of_int t.clauses.Cvec.size *. 0.3 +. 1000.0);
      (try search t ~budget ~cap:left ~deadline with
      | Result r -> result := Some r
      | Exit -> ()
      | Cap_hit ->
          cancel_until t 0;
          raise (Budget_exceeded Conflicts)
      | Deadline_hit ->
          cancel_until t 0;
          raise (Budget_exceeded Deadline))
    done;
    (* On UNSAT, leave the solver at level 0 ready for more clauses. *)
    if !result = Some false then cancel_until t 0;
    Option.get !result
  end

let solve ?conflict_limit ?deadline t =
  let module Trace = Alive_trace.Trace in
  let sp = Trace.begin_span "cdcl" in
  let c0 = t.conflicts and d0 = t.decisions in
  let finish outcome =
    Trace.add_meta sp
      [
        ("outcome", Trace.Str outcome);
        ("conflicts", Trace.Int (t.conflicts - c0));
        ("decisions", Trace.Int (t.decisions - d0));
      ];
    Trace.end_span sp
  in
  match solve_untraced ?conflict_limit ?deadline t with
  | sat ->
      finish (if sat then "sat" else "unsat");
      sat
  | exception e ->
      finish "budget";
      raise e

(* Snapshot of the instance for DIMACS dumping: level-0 facts as unit
   clauses, then the problem clauses. Learnt clauses are redundant and
   omitted. Safe to call between [solve]s regardless of the last answer —
   only the level-0 prefix of the trail is read. *)
let export t =
  let cls = ref [] in
  for i = t.clauses.Cvec.size - 1 downto 0 do
    let c = t.clauses.Cvec.data.(i) in
    if not c.deleted then cls := Array.to_list c.lits :: !cls
  done;
  let lvl0 = if t.trail_lim_size = 0 then t.trail_size else t.trail_lim.(0) in
  for i = lvl0 - 1 downto 0 do
    cls := [ t.trail.(i) ] :: !cls
  done;
  (t.nvars, !cls)

let value t l =
  match lit_value t l with
  | 0 -> true
  | 1 -> false
  | _ -> (Bytes.get t.phase (var l) = '\000') = is_pos l

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  clauses : int;
  learnts : int;
  vars : int;
}

let stats (t : t) =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    clauses = t.clauses.Cvec.size;
    learnts = t.learnts.Cvec.size;
    vars = t.nvars;
  }
