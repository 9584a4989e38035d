(* The verification service: wire-protocol framing, the disk-persistent
   verdict store's durability guarantees (torn writes, corruption,
   newest-wins replay, compaction, locking, future schemas), digest
   determinism under racing domains, and an in-process daemon round-trip.

   Store tests each work in a fresh temp directory under the system temp
   dir, removed on exit; the daemon test binds its socket there too. *)

module Json = Alive_trace.Json
module Protocol = Alive_service.Protocol
module Store = Alive_service.Store
module Client = Alive_service.Client
module Daemon = Alive_service.Daemon
module Model = Alive_smt.Model
module T = Alive_smt.Term

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let get = Option.get

let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "alive-svc-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_rw dir = Result.get_ok (Store.open_store dir)
let open_ro dir = Result.get_ok (Store.open_store ~readonly:true dir)

(* The documented line format: 8 hex chars of the payload's MD5, a space,
   the payload. Reimplemented here so the tests pin the on-disk format
   rather than whatever the library happens to write. *)
let line_of payload =
  String.sub (Digest.to_hex (Digest.string payload)) 0 8 ^ " " ^ payload

let segment dir = Filename.concat dir "segment-0001.jsonl"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  output_string oc s;
  close_out oc

let bv w n = T.Vbv (Bitvec.make ~width:w (Int64.of_int n))

let some_model = Model.of_list [ ("!c0", bv 8 5); ("!c1", T.Vbool true) ]

(* --- Protocol framing --- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () -> f ic oc)

let protocol_tests =
  [
    Alcotest.test_case "frames round-trip" `Quick (fun () ->
        with_pipe (fun ic oc ->
            let reqs =
              [
                Protocol.request ~id:1 ~op:"ping" ();
                Protocol.request ~id:2 ~op:"verify"
                  ~args:(Json.Obj [ ("text", Json.String "a\nmulti\nline") ])
                  ();
                Json.Obj [ ("unicode", Json.String "π ∧ ¬δ") ];
              ]
            in
            List.iter (Protocol.write_frame oc) reqs;
            List.iter
              (fun sent ->
                match Protocol.read_frame ic with
                | Ok got ->
                    check_string "frame" (Json.to_string sent)
                      (Json.to_string got)
                | Error _ -> Alcotest.fail "read_frame failed")
              reqs));
    Alcotest.test_case "clean EOF is Closed, garbage is Framing" `Quick
      (fun () ->
        with_pipe (fun ic oc ->
            close_out oc;
            match Protocol.read_frame ic with
            | Error Protocol.Closed -> ()
            | _ -> Alcotest.fail "expected Closed");
        with_pipe (fun ic oc ->
            output_string oc "not a length prefix\n";
            flush oc;
            match Protocol.read_frame ic with
            | Error (Protocol.Framing _) -> ()
            | _ -> Alcotest.fail "expected Framing"));
    Alcotest.test_case "bad JSON is Payload and the stream stays usable"
      `Quick (fun () ->
        with_pipe (fun ic oc ->
            let bad = "{oops" in
            Printf.fprintf oc "%08x\n%s\n" (String.length bad) bad;
            flush oc;
            Protocol.write_frame oc (Protocol.request ~id:7 ~op:"ping" ());
            (match Protocol.read_frame ic with
            | Error (Protocol.Payload _) -> ()
            | _ -> Alcotest.fail "expected Payload");
            match Protocol.read_frame ic with
            | Ok j ->
                check_string "next frame intact" "ping"
                  (get (Option.bind (Json.member "op" j) Json.to_str))
            | Error _ -> Alcotest.fail "stream desynchronized"));
    Alcotest.test_case "request/response shapes parse back" `Quick (fun () ->
        let req =
          Protocol.request ~id:3 ~op:"lint"
            ~args:(Json.Obj [ ("text", Json.String "t") ])
            ()
        in
        (match Protocol.parse_request req with
        | Ok (id, op, rid, args) ->
            check_int "id" 3 (get (Json.to_int id));
            check_string "op" "lint" op;
            check_bool "no rid" true (rid = None);
            check_string "args" "t"
              (get (Option.bind (Json.member "text" args) Json.to_str))
        | Error e -> Alcotest.fail e);
        (match
           Protocol.parse_request
             (Protocol.request ~id:4 ~op:"ping" ~rid:"r-77" ())
         with
        | Ok (_, _, rid, _) -> check_bool "rid" true (rid = Some "r-77")
        | Error e -> Alcotest.fail e);
        let id = Json.Int 3 in
        (match Protocol.parse_response (Protocol.ok_response ~id Json.Null) with
        | Ok Json.Null -> ()
        | _ -> Alcotest.fail "ok response");
        match Protocol.parse_response (Protocol.error_response ~id "boom") with
        | Error "boom" -> ()
        | _ -> Alcotest.fail "error response");
  ]

(* --- Store durability --- *)

let store_tests =
  [
    Alcotest.test_case "verdicts round-trip a close with provenance" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.set_context ~rev:"rev-abc" ~budget:"5s" s;
            Store.publish s "d-valid" `Valid;
            Store.publish
              ~cost:
                { Alive_smt.Solve.sat_s = 0.25; conflicts = 42;
                  cegar_iterations = 3; static = false }
              s "d-invalid" (`Invalid some_model);
            Store.close s;
            let s = open_rw dir in
            let e = get (Store.lookup s "d-valid") in
            check_bool "valid" true (e.Store.verdict = `Valid);
            check_string "rev" "rev-abc" e.Store.rev;
            check_string "budget" "5s" e.Store.budget;
            check_bool "timestamp" true (String.length e.Store.timestamp > 0);
            let e = get (Store.lookup s "d-invalid") in
            (match e.Store.verdict with
            | `Invalid m ->
                check_bool "model" true (Model.find m "!c0" = Some (bv 8 5));
                check_bool "model bool" true
                  (Model.find m "!c1" = Some (T.Vbool true))
            | `Valid -> Alcotest.fail "expected invalid");
            let c = get e.Store.cost in
            check_int "conflicts" 42 c.Alive_smt.Solve.conflicts;
            check_int "cegar" 3 c.Alive_smt.Solve.cegar_iterations;
            check_int "live" 2 (Store.stats s).Store.live;
            Store.close s));
    Alcotest.test_case "a torn final line is dropped quietly" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.publish s "d1" `Valid;
            Store.publish s "d2" `Valid;
            Store.close s;
            (* A writer killed mid-append leaves a partial line. *)
            append_raw (segment dir) "1a2b3c4d {\"k\":\"d3\",\"v\":\"val";
            let s = open_rw dir in
            let st = Store.stats s in
            check_int "live" 2 st.Store.live;
            check_int "truncated" 1 st.Store.truncated;
            check_int "corrupt" 0 st.Store.corrupt;
            check_bool "d3 absent" false (Store.mem s "d3");
            (* The handle appends past the torn line without issue. *)
            Store.publish s "d3" `Valid;
            Store.close s;
            let s = open_rw dir in
            check_bool "d3 present after reopen" true (Store.mem s "d3");
            Store.close s));
    Alcotest.test_case "mid-segment corruption is counted, rest survives"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.publish s "d1" `Valid;
            Store.publish s "d2" `Valid;
            Store.publish s "d3" `Valid;
            Store.close s;
            (match read_lines (segment dir) with
            | header :: r1 :: _r2 :: rest ->
                write_lines (segment dir)
                  (header :: r1 :: "00000000 {\"k\":\"d2\",\"v\":\"valid\"}"
                  :: rest)
            | _ -> Alcotest.fail "unexpected segment shape");
            let s = open_rw dir in
            let st = Store.stats s in
            check_int "live" 2 st.Store.live;
            check_int "corrupt" 1 st.Store.corrupt;
            check_bool "d1 survives" true (Store.mem s "d1");
            check_bool "d3 survives" true (Store.mem s "d3");
            check_bool "d2 dropped" false (Store.mem s "d2");
            Store.close s));
    Alcotest.test_case "newest wins, compaction collapses history" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.publish s "d" `Valid;
            (* Different kind: overrides in the table and on disk. *)
            Store.publish s "d" (`Invalid some_model);
            check_bool "in-handle override" true
              (match Store.lookup_verdict s "d" with
              | Some (`Invalid _) -> true
              | _ -> false);
            Store.close s;
            (* A later segment overrides an earlier one on replay. *)
            let seg2 = Filename.concat dir "segment-0002.jsonl" in
            write_lines seg2
              [
                line_of "{\"magic\":\"alive-verdict-store\",\"schema\":1}";
                line_of "{\"k\":\"d\",\"v\":\"valid\"}";
              ];
            let s = open_rw dir in
            check_bool "segment override" true
              (Store.lookup_verdict s "d" = Some `Valid);
            check_int "two segments" 2 (Store.stats s).Store.segments;
            Store.compact s;
            let st = Store.stats s in
            check_int "one segment" 1 st.Store.segments;
            Store.close s;
            let s = open_rw dir in
            check_bool "survives compaction" true
              (Store.lookup_verdict s "d" = Some `Valid);
            check_int "replay is collapsed" 1 (Store.stats s).Store.replayed;
            Store.close s));
    Alcotest.test_case "compaction writes sorted digests" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            List.iter
              (fun d -> Store.publish s d `Valid)
              [ "zz"; "aa"; "mm"; "ff" ];
            Store.compact s;
            Store.close s;
            let seg =
              Filename.concat dir
                (get
                   (List.find_opt
                      (fun f -> Filename.check_suffix f ".jsonl")
                      (Array.to_list (Sys.readdir dir))))
            in
            let keys =
              List.filter_map
                (fun l ->
                  match Json.parse (String.sub l 9 (String.length l - 9)) with
                  | Ok j -> Option.bind (Json.member "k" j) Json.to_str
                  | Error _ -> None)
                (read_lines seg)
            in
            check_bool "sorted" true (keys = List.sort compare keys);
            check_int "all four" 4 (List.length keys)));
    Alcotest.test_case "refuses a future schema" `Quick (fun () ->
        with_temp_dir (fun dir ->
            write_lines (segment dir)
              [
                line_of "{\"magic\":\"alive-verdict-store\",\"schema\":99}";
                line_of "{\"k\":\"d\",\"v\":\"valid\"}";
              ];
            match Store.open_store dir with
            | Error e ->
                check_bool "mentions schema" true
                  (Astring.String.is_infix ~affix:"schema" e)
            | Ok _ -> Alcotest.fail "opened a future-schema store"));
    Alcotest.test_case "write lock excludes writers, readonly coexists"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.publish s "d" `Valid;
            (* [lockf] locks are per-process, so the contending writer must
               be a separate process: re-exec this binary in its lock-probe
               mode (see [test_main]; [fork] is unavailable with domains). *)
            let env =
              Array.append (Unix.environment ())
                [| "ALIVE_STORE_LOCK_PROBE=" ^ dir |]
            in
            let pid =
              Unix.create_process_env Sys.executable_name
                [| Sys.executable_name |] env Unix.stdin Unix.stdout
                Unix.stderr
            in
            let _, status = Unix.waitpid [] pid in
            check_bool "child writer refused" true (status = Unix.WEXITED 0);
            let ro = open_ro dir in
            check_bool "readonly sees data" true (Store.mem ro "d");
            check_bool "readonly publish refused" true
              (match Store.publish ro "x" `Valid with
              | () -> false
              | exception Invalid_argument _ -> true);
            Store.close ro;
            Store.close s;
            (* Lock released: a new writer gets in. *)
            let s = open_rw dir in
            Store.close s));
    Alcotest.test_case "concurrent publishers through one handle" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            let worker k () =
              for i = 0 to 99 do
                Store.publish s (Printf.sprintf "w%d-%03d" k i) `Valid
              done
            in
            let doms = List.init 4 (fun k -> Domain.spawn (worker k)) in
            List.iter Domain.join doms;
            Store.close s;
            let s = open_rw dir in
            let st = Store.stats s in
            check_int "all records durable" 400 st.Store.live;
            check_int "no corruption" 0 (st.Store.corrupt + st.Store.truncated);
            Store.close s));
    Alcotest.test_case "re-publishing the same kind does not grow the log"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_rw dir in
            Store.publish s "d" `Valid;
            let before = (Store.stats s).Store.appended in
            Store.publish s "d" `Valid;
            Store.publish s "d" `Valid;
            check_int "no-op appends" before (Store.stats s).Store.appended;
            Store.close s));
  ]

(* --- Digest determinism ---

   The store is only sound if canonical digests depend on the query's
   content alone — not on hash-consing insertion order, which varies
   between processes and with domain interleaving. In-process re-derivation
   cannot exercise the insertion-order axis (the first construction freezes
   the table), so the digests of two entries that historically diverged
   under racing domains are pinned as golden values: any schedule- or
   process-dependence, and any accidental change to the canonical
   serialization, shows up as a mismatch. A deliberate encoding change must
   update these values — and by doing so declares every existing store
   stale, which is exactly the contract. Four domains recompute them
   concurrently to keep the racing path exercised. *)

let digests_of text =
  let tr = Alive.Parser.parse_transform text in
  match Alive.Refine.query_digests tr with
  | Ok dss -> List.concat dss
  | Error e -> Alcotest.fail e

let combined text = Digest.to_hex (Digest.string (String.concat "," (digests_of text)))

let golden =
  [
    ( "Name: sub-of-neg\n\
       %nb = sub 0, %B\n%r = sub %A, %nb\n=>\n%r = add %A, %B\n",
      "c6dfc768589edfe2661ce39055ebff64" );
    ( "Name: add-neg\n\
       %nb = sub 0, %B\n%r = add %A, %nb\n=>\n%r = sub %A, %B\n",
      "24cf0c749f36e02f30fa982cd1dd74c3" );
  ]

(* Corpus entries with preconditions, at their declared widths: a
   comparison beside a one-sided [MaskedValueIsZero], [width(...)] inside a
   predicate argument and inside a comparison, and [isPowerOf2] of a value
   beside [hasOneUse]. A reordered [%analysis.*] variable or any change in
   how a predicate is encoded moves these. *)
let golden_entries =
  [
    ("AndOrXor:fig2-masked-or", "1c650690e5717e6e543b0a38e0f54a90");
    ("Shifts:ashr-nonneg-is-lshr", "157c70a2e11ee59d8944166e6ada8b59");
    ("Shifts:shl-shl-accumulate", "4c3287363c2f51ca6e6b389b24cfeb3c");
    ("PR21274", "6b69375094b38b0e4aa5ace0ebf79054");
  ]

let combined_entry name =
  match Alive_suite.Registry.find name with
  | None -> Alcotest.failf "no corpus entry %s" name
  | Some e -> (
      match
        Alive.Refine.query_digests ?widths:e.widths (Alive_suite.Entry.parse e)
      with
      | Ok dss ->
          Digest.to_hex (Digest.string (String.concat "," (List.concat dss)))
      | Error m -> Alcotest.fail m)

(* Every corpus entry at its declared widths, in registry order: one line
   per entry naming it and its query digests, hashed together. Any change
   to the VC generator that moves a single query's encoding moves this
   value; like the golden digests above, a deliberate encoding change must
   update it and so declares every existing store stale. *)
let corpus_fingerprint () =
  let line (e : Alive_suite.Entry.t) =
    match
      Alive.Refine.query_digests ?widths:e.widths (Alive_suite.Entry.parse e)
    with
    | Ok dss -> e.name ^ ":" ^ String.concat "," (List.concat dss)
    | Error m -> Alcotest.failf "%s: %s" e.name m
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map line Alive_suite.Registry.all)))

let determinism_tests =
  [
    Alcotest.test_case "every corpus query digest is pinned" `Quick (fun () ->
        check_string "corpus fingerprint" "96c847ef0812af4a0a5f06e5e2af3370"
          (corpus_fingerprint ()));
    Alcotest.test_case "store keys match their golden digests" `Quick
      (fun () ->
        List.iter
          (fun (text, want) -> check_string "combined digest" want (combined text))
          golden;
        List.iter
          (fun (name, want) -> check_string name want (combined_entry name))
          golden_entries);
    Alcotest.test_case "racing domains derive the same keys" `Quick (fun () ->
        let run _ () = List.map (fun (text, _) -> combined text) golden in
        let doms = List.init 4 (fun k -> Domain.spawn (run k)) in
        let got = List.map Domain.join doms in
        let want = List.map snd golden in
        List.iteri
          (fun k per_domain ->
            check_bool (Printf.sprintf "domain %d" k) true (per_domain = want))
          got);
  ]

(* --- Daemon end-to-end --- *)

let daemon_tests =
  [
    Alcotest.test_case "daemon round-trips over its socket" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let socket = Filename.concat dir "d.sock" in
            let config =
              {
                (Daemon.default_config ~socket_path:socket) with
                Daemon.store_dir = Some (Filename.concat dir "store");
                jobs = Some 2;
              }
            in
            let outcome = ref (Error "daemon did not run") in
            let th = Thread.create (fun () -> outcome := Daemon.serve config) () in
            let rec connect tries =
              match Client.connect socket with
              | Ok c -> c
              | Error e ->
                  if tries = 0 then Alcotest.fail ("connect: " ^ e)
                  else begin
                    Thread.delay 0.05;
                    connect (tries - 1)
                  end
            in
            let c = connect 100 in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            let text = "Name: t\n%r = add %a, 0\n=>\n%r = %a\n" in
            (match Client.ping c with
            | Ok j ->
                check_int "jobs" 2
                  (get (Option.bind (Json.member "jobs" j) Json.to_int));
                check_bool "store attached" true
                  (Json.member "store" j = Some (Json.Bool true))
            | Error e -> Alcotest.fail ("ping: " ^ e));
            (match Client.parse c ~text with
            | Ok j ->
                check_int "count" 1
                  (get (Option.bind (Json.member "count" j) Json.to_int))
            | Error e -> Alcotest.fail ("parse: " ^ e));
            (match Client.verify c ~text () with
            | Ok (Json.List [ j ]) ->
                check_string "verdict" "valid"
                  (get (Option.bind (Json.member "verdict" j) Json.to_str));
                (* add %a, 0 => %a falls to the tier-0 static prover; the
                   daemon must surface that in its response. *)
                check_bool "static proved" true
                  (get
                     (Option.bind (Json.member "static_proved" j) Json.to_int)
                  > 0)
            | Ok _ -> Alcotest.fail "verify shape"
            | Error e -> Alcotest.fail ("verify: " ^ e));
            (* Store round-trip needs a transform the static tier cannot
               discharge (the (a&b)+(a|b) = a+b identity is beyond the
               linear normalizer): first verify solves and files it, the
               second is answered from the store. *)
            let hard =
              "Name: t2\n%t1 = and %a, %b\n%t2 = or %a, %b\n\
               %r = add %t1, %t2\n=>\n%r = add %a, %b\n"
            in
            (match Client.verify c ~text:hard () with
            | Ok (Json.List [ j ]) ->
                check_string "verdict" "valid"
                  (get (Option.bind (Json.member "verdict" j) Json.to_str))
            | Ok _ -> Alcotest.fail "verify shape"
            | Error e -> Alcotest.fail ("verify: " ^ e));
            (match Client.verify c ~text:hard () with
            | Ok (Json.List [ j ]) ->
                check_bool "store hits" true
                  (get (Option.bind (Json.member "store_hits" j) Json.to_int)
                  > 0)
            | Ok _ -> Alcotest.fail "verify shape"
            | Error e -> Alcotest.fail ("verify: " ^ e));
            (match Client.digests c ~text () with
            | Ok (Json.List [ j ]) ->
                check_bool "has typings" true (Json.member "typings" j <> None)
            | Ok _ -> Alcotest.fail "digests shape"
            | Error e -> Alcotest.fail ("digests: " ^ e));
            (* A malformed request gets an error, not a dropped connection. *)
            (match Client.call c ~op:"no-such-op" () with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "unknown op accepted");
            (match Client.call c ~op:"verify" () with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "verify without text accepted");
            (match Client.store_stats c with
            | Ok j ->
                check_bool "store grew" true
                  (get (Option.bind (Json.member "live" j) Json.to_int) > 0)
            | Error e -> Alcotest.fail ("store-stats: " ^ e));
            (match Client.metrics c with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("metrics: " ^ e));
            (match Client.shutdown c with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("shutdown: " ^ e));
            Thread.join th;
            (match !outcome with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("serve: " ^ e));
            check_bool "socket removed" false (Sys.file_exists socket)));
  ]

(* --- Live telemetry: request tracing, structured logs, Prometheus,
   explain ---

   One daemon with a single worker domain (so the probe behind [explain]
   sees exactly the caches solving warmed), hammered by parallel clients
   with distinct request ids, then restarted on the same store to observe
   the store tier with a cold cache. *)

let start_daemon config =
  let outcome = ref (Error "daemon did not run") in
  let th = Thread.create (fun () -> outcome := Daemon.serve config) () in
  let rec connect tries =
    match Client.connect config.Daemon.socket_path with
    | Ok c -> c
    | Error e ->
        if tries = 0 then Alcotest.fail ("connect: " ^ e)
        else begin
          Thread.delay 0.05;
          connect (tries - 1)
        end
  in
  let c = connect 100 in
  (c, th, outcome)

let stop_daemon (c, th, outcome) =
  (match Client.shutdown c with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("shutdown: " ^ e));
  Client.close c;
  Thread.join th;
  match !outcome with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("serve: " ^ e)

let jstr j k = Option.bind (Json.member k j) Json.to_str
let jint j k = Option.bind (Json.member k j) Json.to_int

let read_jsonl path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> Result.get_ok (Json.parse l))

(* The static tier proves x+0 = x; the (a&b)+(a|b) = a+b identities are
   beyond it, so they exercise the solver, the cache, and the store. *)
let static_text = "Name: st\n%r = add %a, 0\n=>\n%r = %a\n"

let hard_text name op1 op2 =
  Printf.sprintf
    "Name: %s\n%%t1 = %s %%a, %%b\n%%t2 = %s %%a, %%b\n%%r = add %%t1, \
     %%t2\n=>\n%%r = add %%a, %%b\n"
    name op1 op2

let prom_value text name =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    (String.split_on_char '\n' text)

let telemetry_tests =
  [
    Alcotest.test_case "parallel requests keep their ids across telemetry"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let socket = Filename.concat dir "t.sock" in
            let log_path = Filename.concat dir "log.jsonl" in
            let slow_path = Filename.concat dir "slow.jsonl" in
            let log_oc = open_out log_path in
            let slow_oc = open_out slow_path in
            let config =
              {
                (Daemon.default_config ~socket_path:socket) with
                Daemon.store_dir = Some (Filename.concat dir "store");
                jobs = Some 1;
                structured_log = Some log_oc;
                slow_log = Some slow_oc;
                (* Everything is a slow query at 1ns, so every request
                   leaves a slow-log record to check. *)
                slow_query_ms = 0.000001;
              }
            in
            let d = start_daemon config in
            let c0, _, _ = d in
            let n = 6 in
            let rids = List.init n (Printf.sprintf "par-%d") in
            let failures = ref [] in
            let fail_lock = Mutex.create () in
            let worker i () =
              let rid = Printf.sprintf "par-%d" i in
              let record msg =
                Mutex.lock fail_lock;
                failures := msg :: !failures;
                Mutex.unlock fail_lock
              in
              match Client.connect socket with
              | Error e -> record ("connect: " ^ e)
              | Ok c -> (
                  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
                  let text =
                    Printf.sprintf "Name: p%d\n%%r = add %%a, %d\n=>\n%%r = \
                                    add %%a, %d\n"
                      i i i
                  in
                  match Client.verify c ~rid ~spans:true ~text () with
                  | Error e -> record (rid ^ ": " ^ e)
                  | Ok j -> (
                      match Json.member "spans" j with
                      | Some (Json.List (_ :: _ as spans)) ->
                          List.iter
                            (fun sp ->
                              let meta =
                                Option.value ~default:Json.Null
                                  (Json.member "meta" sp)
                              in
                              if jstr meta "rid" <> Some rid then
                                record
                                  (rid ^ ": span tagged "
                                  ^ Option.value ~default:"<none>"
                                      (jstr meta "rid")))
                            spans
                      | _ -> record (rid ^ ": no spans attached")))
            in
            let threads =
              List.init n (fun i -> Thread.create (worker i) ())
            in
            List.iter Thread.join threads;
            check_bool
              (String.concat "; " !failures)
              true (!failures = []);
            (* Scrape before shutdown: counters vs histograms must agree.
               The in-flight scrape itself is counted in requests but not
               yet observed in the latency histogram, hence the gauge. *)
            (match Client.metrics_prom c0 with
            | Error e -> Alcotest.fail ("metrics-prom: " ^ e)
            | Ok text ->
                let v name =
                  match prom_value text name with
                  | Some v -> v
                  | None -> Alcotest.fail (name ^ " missing from exposition")
                in
                check_bool "requests = observed + in-flight" true
                  (v "alive_service_requests_total"
                  = v "alive_service_request_s_count"
                    +. v "alive_service_inflight");
                check_bool "verify op histogram counted all clients" true
                  (v "alive_service_request_s_verify_count" >= float_of_int n);
                check_bool "verify +Inf bucket closes at its count" true
                  (v "alive_service_request_s_verify_count"
                  = Option.value ~default:(-1.0)
                      (List.find_map
                         (fun l ->
                           if
                             Astring.String.is_prefix
                               ~affix:
                                 "alive_service_request_s_verify_bucket{le=\"+Inf\"}"
                               l
                           then
                             float_of_string_opt
                               (String.sub l
                                  (String.rindex l ' ' + 1)
                                  (String.length l - String.rindex l ' ' - 1))
                           else None)
                         (String.split_on_char '\n' text)));
                check_bool "slow queries counted" true
                  (v "alive_service_slow_queries_total" >= float_of_int n));
            stop_daemon d;
            close_out_noerr log_oc;
            close_out_noerr slow_oc;
            (* Every parallel request logged exactly once, under its own
               rid — no cross-request bleed between connection threads. *)
            let log = read_jsonl log_path in
            let logged_rids =
              List.filter_map
                (fun l ->
                  (* Each request logs one "request" completion line; the
                     slow-query warning reuses the rid, so key on msg. *)
                  match (jstr l "msg", jstr l "rid") with
                  | Some "request", Some r
                    when String.length r >= 4 && String.sub r 0 4 = "par-" ->
                      check_bool (r ^ " is a verify line") true
                        (jstr l "op" = Some "verify");
                      Some r
                  | _ -> None)
                log
            in
            check_bool "each rid logged exactly once" true
              (List.sort compare logged_rids = List.sort compare rids);
            check_bool "lifecycle lines present" true
              (List.exists (fun l -> jstr l "msg" = Some "daemon listening") log);
            (* The slow log carries the same rids with digests. *)
            let slow = read_jsonl slow_path in
            let slow_rids =
              List.filter_map
                (fun l ->
                  match jstr l "rid" with
                  | Some r
                    when String.length r >= 4 && String.sub r 0 4 = "par-" ->
                      check_bool (r ^ " has digests") true
                        (Json.member "digests" l <> None);
                      Some r
                  | _ -> None)
                slow
            in
            check_bool "slow log covers every parallel request" true
              (List.sort compare slow_rids = List.sort compare rids)));
    Alcotest.test_case "explain attributes verdicts to their tier" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let socket = Filename.concat dir "e.sock" in
            let store_dir = Filename.concat dir "store" in
            let config =
              {
                (Daemon.default_config ~socket_path:socket) with
                Daemon.store_dir = Some store_dir;
                jobs = Some 1;
              }
            in
            let hard = hard_text "e1" "and" "or" in
            let overall_tier c text =
              match Client.explain c ~text () with
              | Ok (Json.List [ j ]) -> get (jstr j "tier")
              | Ok _ -> Alcotest.fail "explain shape"
              | Error e -> Alcotest.fail ("explain: " ^ e)
            in
            let d = start_daemon config in
            let c, _, _ = d in
            (* Static tier: the tier-0 prover discharges every query. *)
            check_string "static tier" "static" (overall_tier c static_text);
            (* SMT tier: never solved, not cached, not stored. *)
            check_string "smt tier before solving" "smt"
              (overall_tier c hard);
            (* Cache tier: solve it, then probe on the same single worker. *)
            (match Client.verify c ~text:hard () with
            | Ok (Json.List [ j ]) ->
                check_string "solved valid" "valid" (get (jstr j "verdict"))
            | Ok _ -> Alcotest.fail "verify shape"
            | Error e -> Alcotest.fail ("verify: " ^ e));
            check_string "cache tier after solving" "cache"
              (overall_tier c hard);
            (* The unknown:* breakdown surfaces per op in metrics after a
               budget-exhausted verify. A valid division identity cannot be
               answered without searching the divider circuit (the static
               tier has no division rules, and an early SAT answer is
               impossible on a valid transform), so the expired deadline is
               guaranteed to be observed at a restart boundary. *)
            (match
               Client.verify c ~timeout:1e-6
                 ~text:
                   "Name: e2\n\
                    Pre: isPowerOf2(C1)\n\
                    %r = udiv %x, C1\n\
                    =>\n\
                    %r = lshr %x, log2(C1)\n"
                 ()
             with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("verify timeout: " ^ e));
            (match Client.metrics c with
            | Ok m ->
                let counters =
                  Option.value ~default:Json.Null (Json.member "counters" m)
                in
                check_bool "unknown-reason counter" true
                  (List.exists
                     (fun slug ->
                       match jint counters ("refine.unknown." ^ slug) with
                       | Some n -> n > 0
                       | None -> false)
                     [ "timeout"; "conflicts"; "cegar" ])
            | Error e -> Alcotest.fail ("metrics: " ^ e));
            stop_daemon d;
            (* Store tier: a fresh daemon on the same store has a cold
               in-memory cache, so the stored verdict is the live answer. *)
            let d2 = start_daemon config in
            let c2, _, _ = d2 in
            check_string "store tier after restart" "store"
              (overall_tier c2 hard);
            (* Digest form: the store-tier query's record round-trips with
               its provenance. *)
            let digest =
              match Client.explain c2 ~text:hard () with
              | Ok (Json.List [ j ]) -> (
                  match Json.member "typings" j with
                  | Some (Json.List typings) ->
                      let qs =
                        List.concat_map
                          (function Json.List qs -> qs | _ -> [])
                          typings
                      in
                      get
                        (List.find_map
                           (fun q ->
                             if jstr q "tier" = Some "store" then
                               jstr q "digest"
                             else None)
                           qs)
                  | _ -> Alcotest.fail "explain typings shape")
              | _ -> Alcotest.fail "explain failed"
            in
            (match Client.explain_digest c2 digest with
            | Ok j ->
                check_bool "found" true
                  (Json.member "found" j = Some (Json.Bool true));
                check_string "origin" "smt" (get (jstr j "origin"));
                let store = get (Json.member "store" j) in
                check_bool "provenance rev" true
                  (jstr store "rev" <> None);
                check_bool "provenance ts" true (jstr store "ts" <> None)
            | Error e -> Alcotest.fail ("explain digest: " ^ e));
            (* The trace ring kept span batches from recent requests. *)
            (match Client.trace_dump c2 with
            | Ok j ->
                check_bool "chrome trace shape" true
                  (match Json.member "traceEvents" j with
                  | Some (Json.List _) -> true
                  | _ -> false)
            | Error e -> Alcotest.fail ("trace: " ^ e));
            stop_daemon d2));
  ]

(* --- Ledger records of daemon runs ---

   A run through the daemon records the daemon's registry change between a
   scrape before it and one after, as [alive corpus verify --via --ledger]
   does. *)

module Metrics = Alive_trace.Metrics
module Ledger = Alive_trace.Ledger

let scrape c =
  match Client.metrics c with
  | Ok j -> Metrics.snapshot_of_json j
  | Error e -> Alcotest.fail ("metrics: " ^ e)

let verify_ok c text =
  match Client.verify c ~text () with
  | Ok (Json.List items) -> items
  | Ok _ -> Alcotest.fail "verify shape"
  | Error e -> Alcotest.fail ("verify: " ^ e)

(* One worker, so the second of two passes sees the caches the first one
   warmed. *)
let one_worker_daemon dir =
  start_daemon
    {
      (Daemon.default_config ~socket_path:(Filename.concat dir "l.sock")) with
      Daemon.jobs = Some 1;
    }

let ledger_tests =
  [
    Alcotest.test_case "every counter reaches the response, ledger and scrape"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            (* From zero, so the peaks are this run's own. *)
            Metrics.reset ();
            let d = one_worker_daemon dir in
            let c, _, _ = d in
            let before = scrape c in
            let items = verify_ok c (hard_text "l1" "and" "or") in
            let record =
              Ledger.make ~label:"test" ~jobs:1 ~tasks:1 ~wall_s:0.0 before
                (scrape c)
            in
            let prom =
              match Client.metrics_prom c with
              | Ok text -> text
              | Error e -> Alcotest.fail ("metrics-prom: " ^ e)
            in
            stop_daemon d;
            List.iter
              (fun (name, metric) ->
                List.iter
                  (fun j ->
                    check_bool ("response has " ^ name) true
                      (Json.member name j <> None))
                  items;
                check_bool ("record has " ^ metric) true
                  (List.mem_assoc metric record.counters);
                let exported =
                  "# TYPE alive_"
                  ^ String.map (fun ch -> if ch = '.' then '_' else ch) metric
                in
                check_bool ("scrape exports " ^ metric) true
                  (Astring.String.is_infix ~affix:exported prom))
              Alive_smt.Solve.counters));
    Alcotest.test_case "a daemon run's record holds only its own pass" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let entries =
              List.filter
                (fun (e : Alive_suite.Entry.t) -> e.file = "AndOrXor")
                Alive_suite.Registry.all
              |> List.filteri (fun i _ -> i < 12)
            in
            let d = one_worker_daemon dir in
            let c, _, _ = d in
            let pass () =
              let before = scrape c in
              List.iter
                (fun (e : Alive_suite.Entry.t) ->
                  match Client.verify c ?widths:e.widths ~text:e.text () with
                  | Ok _ -> ()
                  | Error err -> Alcotest.fail ("verify: " ^ err))
                entries;
              let r =
                Ledger.make ~label:"test" ~jobs:1 ~tasks:(List.length entries)
                  ~wall_s:0.0 before (scrape c)
              in
              fun k -> Option.value ~default:(-1.0) (List.assoc_opt k r.counters)
            in
            let first = pass () in
            let second = pass () in
            stop_daemon d;
            let n = float_of_int (List.length entries) in
            check_bool "the first pass built AIG nodes" true
              (first "solve.aig_nodes_in" > 0.0);
            Alcotest.(check (float 0.0)) "first pass verify requests" n
              (first "service.requests.verify");
            Alcotest.(check (float 0.0)) "the second pass solved nothing" 0.0
              (second "solve.conflicts");
            Alcotest.(check (float 0.0)) "so it built no AIG nodes" 0.0
              (second "solve.aig_nodes_in");
            Alcotest.(check (float 0.0)) "one verify per request" n
              (second "service.requests.verify")));
  ]

(* --- A transform with no feasible typing ---

   [add %a, 1] has no typing at width 1, which [run] reports as a type
   error. Every other reader of the same walk must say so too: the
   digests, the explain probe, and so the store replay, which re-verifies
   an entry whose digests are an error instead of replaying it as valid. *)

let no_typing_tests =
  [
    Alcotest.test_case "no feasible typing is an error on every path" `Quick
      (fun () ->
        let text = "Name: nt\n%r = add %a, 1\n=>\n%r = add 1, %a\n" in
        let tr = Alive.Parser.parse_transform text in
        let widths = [ 1 ] in
        check_string "run" "type-error"
          (Alive.Refine.verdict_name (Alive.Refine.run ~widths tr).verdict);
        let digests = Alive.Refine.query_digests ~widths tr in
        check_bool "query_digests" true (Result.is_error digests);
        check_bool "probe_queries" true
          (Result.is_error (Alive.Refine.probe_queries ~widths tr));
        check_bool "static_report" true
          (Result.is_error (Alive.Refine.static_report ~widths tr));
        with_temp_dir (fun dir ->
            let store = open_rw dir in
            check_bool "the store replay re-verifies it" true
              (Store.replay store digests = None);
            Store.close store);
        with_temp_dir (fun dir ->
            let d = one_worker_daemon dir in
            let c, _, _ = d in
            let row op =
              let args =
                Json.Obj
                  [
                    ("text", Json.String text);
                    ("widths", Json.List [ Json.Int 1 ]);
                  ]
              in
              match Client.call c ~op ~args () with
              | Ok (Json.List [ j ]) -> j
              | Ok _ -> Alcotest.failf "%s: response shape" op
              | Error e -> Alcotest.failf "%s: %s" op e
            in
            check_string "daemon verify" "type-error"
              (get (jstr (row "verify") "verdict"));
            check_bool "digests row carries error" true
              (jstr (row "digests") "error" <> None);
            check_bool "explain row carries error" true
              (jstr (row "explain") "error" <> None);
            stop_daemon d));
    Alcotest.test_case "client digests take a width domain" `Quick (fun () ->
        let text = "Name: e\n%r = add %a, 0\n=>\n%r = %a\n" in
        let typings widths =
          match
            Alive.Refine.query_digests ?widths
              (Alive.Parser.parse_transform text)
          with
          | Ok ts ->
              let strings ds = Json.List (List.map (fun d -> Json.String d) ds) in
              Some (Json.List (List.map strings ts))
          | Error e -> Alcotest.fail e
        in
        with_temp_dir (fun dir ->
            let d = one_worker_daemon dir in
            let c, _, _ = d in
            let digests widths =
              match Client.digests c ?widths ~text () with
              | Ok (Json.List [ row ]) -> Json.member "typings" row
              | Ok _ -> Alcotest.fail "digests: response shape"
              | Error e -> Alcotest.failf "digests: %s" e
            in
            check_bool "the daemon's digests at i8 are Refine's" true
              (digests (Some [ 8 ]) = typings (Some [ 8 ]));
            check_bool "and differ from the default domain's" true
              (digests (Some [ 8 ]) <> digests None);
            stop_daemon d));
  ]

let suite =
  ( "service",
    protocol_tests @ store_tests @ determinism_tests @ daemon_tests
    @ telemetry_tests @ ledger_tests @ no_typing_tests )
