(* Canonical verdict cache. A verification condition is keyed by its
   canonicalized form — the hash-consed term with variables renamed by
   first-occurrence order ([Term.canonicalize]) — plus the canonical names
   of its existential variables, so alpha-equivalent queries collide and
   everything else (including the same pattern at a different width, which
   changes variable sorts) stays apart.

   The tables are per-domain (the [lib/trace] buffer design): each worker
   of the parallel engine fills its own cache with zero cross-domain
   contention, at the cost of re-solving a query that another domain already
   answered. Models are stored in the canonical namespace and renamed back
   through the requesting query's own variable mapping on a hit, so a cached
   counterexample is a counterexample for every alpha-equivalent VC.

   Only definite verdicts are cached: [`Unknown] depends on the budget and
   the wall clock, so caching it would make verdicts depend on history. *)

module T = Term

type entry = Valid | Invalid of Model.t (* model over canonical names *)

type keyed = {
  key : int * string list; (* canonical term id, canonical exists names *)
  canon_term : T.t; (* the canonical formula, for the content digest *)
  to_canon : (string * string) list; (* original -> canonical names *)
  mutable dig : string option; (* memoized content digest *)
}

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Per-domain entry budget. FIFO eviction: the corpus is solved in one
   sweep, so recency carries little signal and FIFO keeps store O(1). *)
let default_capacity = 1 lsl 13
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 1 n)

type state = {
  table : (int * string list, entry) Hashtbl.t;
  order : (int * string list) Queue.t;
}

let registry : state list ref = ref []
let registry_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let st = { table = Hashtbl.create 1024; order = Queue.create () } in
      Mutex.lock registry_lock;
      registry := st :: !registry;
      Mutex.unlock registry_lock;
      st)

let state () = Domain.DLS.get dls_key

let clear () =
  Mutex.lock registry_lock;
  List.iter
    (fun st ->
      Hashtbl.reset st.table;
      Queue.clear st.order)
    !registry;
  Mutex.unlock registry_lock

let canon ~exists f =
  let cf, mapping = T.canonicalize f in
  (* Existentials that do not occur in the formula cannot affect the
     verdict; dropping them lets more queries collide. *)
  let enames =
    List.sort compare
      (List.filter_map (fun (n, _) -> List.assoc_opt n mapping) exists)
  in
  { key = (T.hash cf, enames); canon_term = cf; to_canon = mapping; dig = None }

(* --- Content digest ---

   The in-memory key is the canonical term's hash-consing id — assigned in
   table-insertion order, so meaningless outside this process. A persistent
   store needs a key derived from the term's content alone. Serialize the
   canonical term as a DAG (one line per distinct subterm, children referred
   to by sequence number) so shared subterms are written once — a naive
   pretty-print of an ite chain with sharing is exponential — and digest
   that together with the existential name set. Variable sorts are written
   explicitly: two widths of the same pattern must never collide. *)

let serialize_dag buf (t : T.t) =
  let seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  let sort_tag (s : T.sort) =
    match s with T.Bool -> "b" | T.Bv w -> "v" ^ string_of_int w
  in
  let rec go (t : T.t) =
    match Hashtbl.find_opt seen t.T.id with
    | Some i -> i
    | None ->
        let kids, tag =
          match t.T.node with
          | T.True -> ([], "T")
          | T.False -> ([], "F")
          | T.Var (n, s) -> ([], "V" ^ n ^ ":" ^ sort_tag s)
          | T.BvConst c ->
              ( [],
                "C" ^ Bitvec.to_string_hex c ^ ":"
                ^ string_of_int (Bitvec.width c) )
          | T.Not a -> ([ a ], "!")
          | T.And l -> (l, "&")
          | T.Or l -> (l, "|")
          | T.Eq (a, b) -> ([ a; b ], "=")
          | T.Ult (a, b) -> ([ a; b ], "u<")
          | T.Slt (a, b) -> ([ a; b ], "s<")
          | T.Ite (c, a, b) -> ([ c; a; b ], "?")
          | T.Bnot a -> ([ a ], "~")
          | T.Bbin (op, a, b) ->
              ([ a; b ], Format.asprintf "%a" T.pp_bvop op)
          | T.Extract (hi, lo, a) ->
              ([ a ], Printf.sprintf "x%d:%d" hi lo)
          | T.Concat (a, b) -> ([ a; b ], ".")
          | T.Zext (n, a) -> ([ a ], "z" ^ string_of_int n)
          | T.Sext (n, a) -> ([ a ], "s" ^ string_of_int n)
        in
        let ids = List.map go kids in
        let i = !next in
        incr next;
        Hashtbl.add seen t.T.id i;
        Buffer.add_string buf tag;
        List.iter
          (fun c ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int c))
          ids;
        Buffer.add_char buf '\n';
        i
  in
  ignore (go t)

let serialization k =
  let buf = Buffer.create 4096 in
  serialize_dag buf k.canon_term;
  Buffer.add_char buf 'E';
  List.iter
    (fun n ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf n)
    (snd k.key);
  Buffer.contents buf

let digest k =
  match k.dig with
  | Some d -> d
  | None ->
      let d = Digest.to_hex (Digest.string (serialization k)) in
      k.dig <- Some d;
      d

(* --- Persistent backing ---

   The disk store (lib/service) plugs in underneath: a lookup consulted on
   in-memory misses, keyed by the content digest, and a publish callback
   fed every definite verdict this process solves. Injected as closures so
   lib/smt does not depend on the service layer. Models cross the boundary
   in the canonical namespace. *)

type backing = {
  lookup : string -> [ `Valid | `Invalid of Model.t ] option;
  publish :
    string -> cost:Solve.cost option -> [ `Valid | `Invalid of Model.t ] -> unit;
}

let backing : backing option Atomic.t = Atomic.make None
let set_backing b = Atomic.set backing b

type hit_source = Memory | Backing

let rename_model mapping m =
  Model.of_list
    (List.filter_map
       (fun (n, v) -> Option.map (fun c -> (c, v)) (List.assoc_opt n mapping))
       (Model.bindings m))

(* Install a canonical-namespace entry into this domain's table, evicting
   FIFO past capacity; shared by [store] and backing-hit adoption. *)
let install (tl : Solve.telemetry) st key entry =
  if not (Hashtbl.mem st.table key) then begin
    Hashtbl.replace st.table key entry;
    Queue.push key st.order;
    if Hashtbl.length st.table > Atomic.get capacity then begin
      Hashtbl.remove st.table (Queue.pop st.order);
      tl.cache_evictions <- tl.cache_evictions + 1
    end
  end

let to_requester k = function
  | Valid -> `Valid
  | Invalid m ->
      let from_canon = List.map (fun (a, b) -> (b, a)) k.to_canon in
      `Invalid (rename_model from_canon m)

(* Where [find] would answer from, without counting a hit or a miss and
   without adopting a backing entry: the daemon's [explain] op attributes
   verdicts to their tier with it. *)
let probe k =
  if Hashtbl.mem (state ()).table k.key then Some Memory
  else
    match Atomic.get backing with
    | Some b when b.lookup (digest k) <> None -> Some Backing
    | _ -> None

let find ~telemetry:(tl : Solve.telemetry) k =
  let st = state () in
  match Hashtbl.find_opt st.table k.key with
  | Some e ->
      tl.cache_hits <- tl.cache_hits + 1;
      Some (to_requester k e, Memory)
  | None -> (
      let miss () =
        tl.cache_misses <- tl.cache_misses + 1;
        None
      in
      match Atomic.get backing with
      | None -> miss ()
      | Some b -> (
          match b.lookup (digest k) with
          | Some outcome ->
              tl.store_hits <- tl.store_hits + 1;
              (* Adopt into the in-memory table: the next alpha-equivalent
                 query on this domain hits without the digest round-trip. *)
              let entry =
                match outcome with `Valid -> Valid | `Invalid m -> Invalid m
              in
              install tl st k.key entry;
              Some (to_requester k entry, Backing)
          | None ->
              tl.store_misses <- tl.store_misses + 1;
              miss ()))

let store ~telemetry ?cost k outcome =
  let st = state () in
  if not (Hashtbl.mem st.table k.key) then begin
    let entry =
      match outcome with
      | `Valid -> Valid
      | `Invalid m -> Invalid (rename_model k.to_canon m)
    in
    (match Atomic.get backing with
    | None -> ()
    | Some b ->
        b.publish (digest k) ~cost
          (match entry with Valid -> `Valid | Invalid m -> `Invalid m));
    install telemetry st k.key entry
  end
