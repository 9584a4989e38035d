(* Disk-persistent verdict store.

   A directory of append-only JSONL segments, replayed into a hash table on
   open. Keys are the canonical content digests of refinement queries
   (Vc_cache.digest) — stable across processes, machines, and hash-consing
   insertion order — so a verdict solved by one run answers the same query
   in every later run. Installed as the cache's backing, the store is the
   tier of the solve path between the in-memory cache and SAT, which is
   what makes `alive corpus verify --store` and the `alive serve` daemon
   incremental.

   Durability model:
   - Writers append one checksummed line per verdict and flush; a crash can
     lose at most the line being written.
   - Every line is `<checksum> <json>` where the checksum is the first 8 hex
     chars of the payload's MD5. On replay a line that fails the checksum or
     does not parse is dropped: silently for the final line of a segment
     (the torn write of a killed process), counted as corruption anywhere
     else.
   - Replay is newest-wins: later segments override earlier ones, later
     lines override earlier lines, so re-publishing a digest supersedes the
     old verdict without rewriting history.
   - Compaction writes the live table to a fresh segment under a temp name,
     renames it into place (atomic on POSIX), then deletes the old segments
     — a crash between steps leaves either the old segments or old + new,
     both of which replay to the same table.
   - A `lock` file (Unix.lockf) serializes writers; read-only opens skip it
     (perfbench times the open-time replay with one).

   Each segment starts with a header line carrying the magic and the schema
   version; a store written by a future schema is refused rather than
   misread. Verdict records carry provenance: git revision, the budget
   string of the run that solved them, per-query solver cost, and a
   timestamp. *)

module Json = Alive_trace.Json
module Model = Alive_smt.Model
module T = Alive_smt.Term

let magic = "alive-verdict-store"
let schema_version = 1

type entry = {
  verdict : [ `Valid | `Invalid of Model.t ];
  rev : string;
  budget : string;
  cost : Alive_smt.Solve.cost option;
  timestamp : string;
}

type stats = {
  segments : int;
  bytes : int;  (* on-disk size of all segments *)
  live : int;  (* distinct digests in the table *)
  replayed : int;  (* records read on open, before newest-wins collapse *)
  corrupt : int;  (* non-final lines dropped by checksum/parse *)
  truncated : int;  (* torn final lines dropped *)
  appended : int;  (* records this handle published *)
}

type t = {
  dir : string;
  readonly : bool;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable out : out_channel option;  (* active segment, write handles only *)
  mutable seg_id : int;  (* id of the active (newest) segment *)
  mutable lock_fd : Unix.file_descr option;
  mutable replayed : int;
  mutable corrupt : int;
  mutable truncated : int;
  mutable appended : int;
  (* Provenance stamped onto every published record. *)
  mutable context_rev : string;
  mutable context_budget : string;
}

(* --- Record serialization --- *)

let checksum payload = String.sub (Digest.to_hex (Digest.string payload)) 0 8

let value_json (v : T.value) =
  match v with
  | T.Vbool b -> Json.Obj [ ("b", Json.Bool b) ]
  | T.Vbv bv ->
      (* int64 as decimal string: OCaml's [int] (hence [Json.Int]) is 63-bit
         and a 64-bit pattern would not round-trip. *)
      Json.Obj
        [
          ("w", Json.Int (Bitvec.width bv));
          ("v", Json.String (Int64.to_string (Bitvec.to_int64 bv)));
        ]

let value_of_json j =
  match (Json.member "b" j, Json.member "w" j, Json.member "v" j) with
  | Some (Json.Bool b), _, _ -> Some (T.Vbool b)
  | None, Some w, Some s -> (
      match (Json.to_int w, Json.to_str s) with
      | Some w, Some s -> (
          match Int64.of_string_opt s with
          | Some n when w >= 1 && w <= Bitvec.max_width ->
              Some (T.Vbv (Bitvec.make ~width:w n))
          | _ -> None)
      | _ -> None)
  | _ -> None

let model_json m =
  Json.List
    (List.map
       (fun (n, v) -> Json.List [ Json.String n; value_json v ])
       (Model.bindings m))

let model_of_json j =
  match Json.to_list j with
  | None -> None
  | Some l ->
      let bind = function
        | Json.List [ Json.String n; v ] ->
            Option.map (fun v -> (n, v)) (value_of_json v)
        | _ -> None
      in
      let bs = List.map bind l in
      if List.mem None bs then None
      else Some (Model.of_list (List.filter_map Fun.id bs))

let entry_json digest (e : entry) =
  let base =
    [
      ("k", Json.String digest);
      ( "v",
        Json.String (match e.verdict with `Valid -> "valid" | `Invalid _ -> "invalid")
      );
    ]
  in
  let model =
    match e.verdict with
    | `Valid -> []
    | `Invalid m -> [ ("model", model_json m) ]
  in
  let cost =
    match e.cost with
    | None -> []
    | Some c ->
        [
          ( "cost",
            Json.Obj
              [
                ("sat_s", Json.Float c.sat_s);
                ("conflicts", Json.Int c.conflicts);
                ("cegar", Json.Int c.cegar_iterations);
                ("static", Json.Bool c.static);
              ] );
        ]
  in
  Json.Obj
    (base @ model @ cost
    @ [
        ("rev", Json.String e.rev);
        ("budget", Json.String e.budget);
        ("ts", Json.String e.timestamp);
      ])

let entry_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let cost =
    Option.bind (Json.member "cost" j) (fun c ->
        match
          ( Option.bind (Json.member "sat_s" c) Json.to_float,
            Option.bind (Json.member "conflicts" c) Json.to_int,
            Option.bind (Json.member "cegar" c) Json.to_int )
        with
        | Some sat_s, Some conflicts, Some cegar_iterations ->
            let static =
              match Json.member "static" c with
              | Some (Json.Bool b) -> b
              | _ -> false
            in
            Some { Alive_smt.Solve.sat_s; conflicts; cegar_iterations; static }
        | _ -> None)
  in
  let finish digest verdict =
    Some
      ( digest,
        {
          verdict;
          rev = Option.value (str "rev") ~default:"unknown";
          budget = Option.value (str "budget") ~default:"";
          cost;
          timestamp = Option.value (str "ts") ~default:"";
        } )
  in
  match (str "k", str "v") with
  | Some digest, Some "valid" -> finish digest `Valid
  | Some digest, Some "invalid" -> (
      match Option.bind (Json.member "model" j) model_of_json with
      | Some m -> finish digest (`Invalid m)
      | None -> None)
  | _ -> None

let line_of payload = checksum payload ^ " " ^ payload

let payload_of_line line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    let sum = String.sub line 0 8 in
    let payload = String.sub line 9 (String.length line - 9) in
    if checksum payload = sum then Some payload else None

let header_line () =
  line_of
    (Json.to_string
       (Json.Obj
          [ ("magic", Json.String magic); ("schema", Json.Int schema_version) ]))

(* --- Segments --- *)

let segment_name id = Printf.sprintf "segment-%04d.jsonl" id

let segment_path t id = Filename.concat t.dir (segment_name id)

let segment_ids dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if
           String.length f = String.length "segment-0000.jsonl"
           && String.sub f 0 8 = "segment-"
           && Filename.check_suffix f ".jsonl"
         then int_of_string_opt (String.sub f 8 4)
         else None)
  |> List.sort compare

(* Replay one segment into the table. Returns [Error] only on a header
   problem (wrong magic, future schema) — body corruption is tolerated and
   counted. *)
let replay_segment t path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let lines = List.rev !lines in
  match lines with
  | [] -> Error (path ^ ": empty segment (no header)")
  | header :: records -> (
      match Option.map Json.parse (payload_of_line header) with
      | Some (Ok h) -> (
          match
            ( Option.bind (Json.member "magic" h) Json.to_str,
              Option.bind (Json.member "schema" h) Json.to_int )
          with
          | Some m, _ when m <> magic ->
              Error (path ^ ": not a verdict store (bad magic)")
          | _, Some s when s > schema_version ->
              Error
                (Printf.sprintf
                   "%s: store schema %d is newer than this binary's %d; \
                    refusing to read"
                   path s schema_version)
          | Some _, Some _ ->
              let n = List.length records in
              List.iteri
                (fun i line ->
                  match Option.map Json.parse (payload_of_line line) with
                  | Some (Ok j) -> (
                      match entry_of_json j with
                      | Some (digest, e) ->
                          t.replayed <- t.replayed + 1;
                          Hashtbl.replace t.table digest e
                      | None -> t.corrupt <- t.corrupt + 1)
                  | Some (Error _) | None ->
                      (* A bad final line is the torn write of a killed
                         process — expected, dropped quietly. Anywhere else
                         it is corruption. *)
                      if i = n - 1 then t.truncated <- t.truncated + 1
                      else t.corrupt <- t.corrupt + 1)
                records;
              Ok ()
          | _ -> Error (path ^ ": malformed store header")
          )
      | Some (Error e) -> Error (path ^ ": malformed store header: " ^ e)
      | None -> Error (path ^ ": store header failed its checksum"))

(* A writer killed mid-append leaves a segment without a trailing newline.
   Replay already drops that torn line; a new writer must also truncate it
   away, or its first append would be glued onto the torn tail and both
   records would be lost on the next replay. *)
let drop_torn_tail path =
  let content = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length content in
  if len > 0 && content.[len - 1] <> '\n' then
    let keep =
      match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
    in
    Unix.truncate path keep

let fresh_segment t id =
  let path = segment_path t id in
  let oc = open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path in
  output_string oc (header_line ());
  output_char oc '\n';
  flush oc;
  oc

let open_store ?(readonly = false) dir =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
    else begin
      let t =
        {
          dir;
          readonly;
          table = Hashtbl.create 4096;
          lock = Mutex.create ();
          out = None;
          seg_id = 0;
          lock_fd = None;
          replayed = 0;
          corrupt = 0;
          truncated = 0;
          appended = 0;
          context_rev = Alive_trace.Ledger.git_rev ();
          context_budget = "";
        }
      in
      let acquire_lock () =
        let fd =
          Unix.openfile
            (Filename.concat dir "lock")
            [ Unix.O_CREAT; Unix.O_WRONLY ] 0o644
        in
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            t.lock_fd <- Some fd;
            Ok ()
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            Error (dir ^ ": another process holds the store write lock")
      in
      let replay () =
        let ids = segment_ids dir in
        let rec go = function
          | [] -> Ok ()
          | id :: rest -> (
              match replay_segment t (segment_path t id) with
              | Ok () ->
                  t.seg_id <- id;
                  go rest
              | Error _ as e -> e)
        in
        go ids
      in
      match (if readonly then Ok () else acquire_lock ()) with
      | Error _ as e -> e
      | Ok () -> (
          match replay () with
          | Error _ as e ->
              Option.iter Unix.close t.lock_fd;
              e
          | Ok () ->
              if not readonly then begin
                let ids = segment_ids dir in
                match List.rev ids with
                | [] ->
                    t.seg_id <- 1;
                    t.out <- Some (fresh_segment t 1)
                | newest :: _ ->
                    t.seg_id <- newest;
                    drop_torn_tail (segment_path t newest);
                    t.out <-
                      Some
                        (open_out_gen
                           [ Open_append; Open_wronly ]
                           0o644 (segment_path t newest))
              end;
              Ok t)
    end
  with
  | Sys_error e -> Error e
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg)

let set_context ?rev ?budget t =
  Mutex.lock t.lock;
  Option.iter (fun r -> t.context_rev <- r) rev;
  Option.iter (fun b -> t.context_budget <- b) budget;
  Mutex.unlock t.lock

let lookup t digest =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table digest in
  Mutex.unlock t.lock;
  r

let lookup_verdict t digest = Option.map (fun e -> e.verdict) (lookup t digest)

let mem t digest =
  Mutex.lock t.lock;
  let r = Hashtbl.mem t.table digest in
  Mutex.unlock t.lock;
  r

let publish ?cost t digest verdict =
  if t.readonly then invalid_arg "Store.publish: read-only store";
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let same_kind =
    match (Hashtbl.find_opt t.table digest, verdict) with
    | Some { verdict = `Valid; _ }, `Valid -> true
    | Some { verdict = `Invalid _; _ }, `Invalid _ -> true
    | _ -> false
  in
  (* Re-deriving a verdict we already hold is the common case once the
     cache warms up; rewriting it would only grow the segment. *)
  if not same_kind then begin
    let e =
      {
        verdict;
        rev = t.context_rev;
        budget = t.context_budget;
        cost;
        timestamp = Alive_trace.Ledger.iso8601 (Unix.gettimeofday ());
      }
    in
    Hashtbl.replace t.table digest e;
    match t.out with
    | None -> ()
    | Some oc ->
        output_string oc (line_of (Json.to_string (entry_json digest e)));
        output_char oc '\n';
        flush oc;
        t.appended <- t.appended + 1
  end

let stats t =
  Mutex.lock t.lock;
  let ids = segment_ids t.dir in
  let bytes =
    List.fold_left
      (fun acc id ->
        match (Unix.stat (segment_path t id)).Unix.st_size with
        | n -> acc + n
        | exception Unix.Unix_error _ -> acc)
      0 ids
  in
  let s =
    {
      segments = List.length ids;
      bytes;
      live = Hashtbl.length t.table;
      replayed = t.replayed;
      corrupt = t.corrupt;
      truncated = t.truncated;
      appended = t.appended;
    }
  in
  Mutex.unlock t.lock;
  s

let stats_json t =
  let s = stats t in
  Json.Obj
    [
      ("segments", Json.Int s.segments);
      ("bytes", Json.Int s.bytes);
      ("live", Json.Int s.live);
      ("replayed", Json.Int s.replayed);
      ("corrupt", Json.Int s.corrupt);
      ("truncated", Json.Int s.truncated);
      ("appended", Json.Int s.appended);
    ]

let compact t =
  if t.readonly then invalid_arg "Store.compact: read-only store";
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let old_ids = segment_ids t.dir in
  let new_id = t.seg_id + 1 in
  let tmp = Filename.concat t.dir (segment_name new_id ^ ".tmp") in
  let oc = open_out tmp in
  output_string oc (header_line ());
  output_char oc '\n';
  (* Deterministic order so identical tables compact to identical bytes —
     convenient for tests and for content-addressed CI caching. *)
  let entries =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  in
  List.iter
    (fun (digest, e) ->
      output_string oc (line_of (Json.to_string (entry_json digest e)));
      output_char oc '\n')
    entries;
  flush oc;
  close_out oc;
  Option.iter close_out_noerr t.out;
  t.out <- None;
  Sys.rename tmp (segment_path t new_id);
  List.iter
    (fun id -> if id <> new_id then Sys.remove (segment_path t id))
    old_ids;
  t.seg_id <- new_id;
  t.out <-
    Some (open_out_gen [ Open_append; Open_wronly ] 0o644 (segment_path t new_id))

let close t =
  Mutex.lock t.lock;
  Option.iter close_out_noerr t.out;
  t.out <- None;
  (match t.lock_fd with
  | Some fd ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close fd;
      t.lock_fd <- None
  | None -> ());
  Mutex.unlock t.lock

(* --- Wiring into the solver path --- *)

let install_backing t =
  Alive_smt.Vc_cache.set_backing
    (Some
       {
         Alive_smt.Vc_cache.lookup = (fun digest -> lookup_verdict t digest);
         publish =
           (fun digest ~cost verdict ->
             if not t.readonly then publish ?cost t digest verdict);
       })

let remove_backing () = Alive_smt.Vc_cache.set_backing None
