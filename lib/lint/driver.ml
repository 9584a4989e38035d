(* Registry-wide lint driver: fans the per-transform rules over the worker
   pool, then runs the corpus-level analyses (duplicate names, shadowing,
   rewrite cycles) that need every entry at once. No SMT anywhere. *)

module D = Alive.Diagnostics
module Entry = Alive_suite.Entry
module Matcher = Alive_opt.Matcher
module Json = Alive_engine.Json

type finding = {
  diag : D.t;
  transform : string;  (** entry / transform name the finding is about *)
  allowlisted : bool;
      (** the entry is expected-invalid (the Fig. 8 bugs corpus); its
          findings are reported but never gate CI *)
}

type report = { findings : finding list; entries : int; wall : float }

(* ---- Per-entry lint ---- *)

let lint_entry (e : Entry.t) : finding list =
  let allowlisted = e.Entry.expected = Entry.Expect_invalid in
  let wrap diag = { diag; transform = e.Entry.name; allowlisted } in
  match Entry.parse e with
  | t -> List.map wrap (Rules.check ~file:e.Entry.file ~canonical:e.Entry.canonical t)
  | exception Alive.Parser.Error (msg, line) ->
      [
        wrap
          (D.make ~rule:"parse.syntax" ~severity:D.Error
             ~where:(D.span ~file:e.Entry.file line)
             msg);
      ]
  | exception Alive.Lexer.Error (msg, line) ->
      [
        wrap
          (D.make ~rule:"parse.lex" ~severity:D.Error
             ~where:(D.span ~file:e.Entry.file line)
             msg);
      ]

(* ---- Corpus rules ---- *)

let duplicate_names (entries : Entry.t list) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (e : Entry.t) ->
      if Hashtbl.mem seen e.Entry.name then
        Some
          {
            diag =
              D.make ~rule:"well-formed.duplicate-name" ~severity:D.Error
                ~where:(D.span ~file:e.Entry.file 1)
                ~hint:"rename one of the entries; lookups are by name"
                (Printf.sprintf "entry name %S is already used in %s"
                   e.Entry.name (Hashtbl.find seen e.Entry.name));
            transform = e.Entry.name;
            allowlisted = false;
          }
      else begin
        Hashtbl.add seen e.Entry.name e.Entry.file;
        None
      end)
    entries

(* The rules the executable pass would actually load: canonical,
   expected-valid, inside the executable integer fragment. *)
type exec_rule = {
  entry : Entry.t;
  t : Alive.Ast.transform;
  rule : Matcher.rule;
}

let executable_rules (entries : Entry.t list) =
  List.filter_map
    (fun (e : Entry.t) ->
      if (not e.Entry.canonical) || e.Entry.expected <> Entry.Expect_valid then
        None
      else
        match Entry.parse e with
        | exception _ -> None
        | t -> (
            match Matcher.rule_of_transform t with
            | Ok rule -> Some { entry = e; t; rule }
            | Error _ -> None))
    entries

(* [a] fires instead of [b] only when [a]'s precondition is no stricter:
   trivially true, or syntactically the same clause set. *)
let pre_covers (a : exec_rule) (b : exec_rule) =
  a.t.Alive.Ast.pre = Alive.Ast.Ptrue || a.t.Alive.Ast.pre = b.t.Alive.Ast.pre

let shadowing (rules : exec_rule list) =
  let arr = Array.of_list rules in
  let out = ref [] in
  for j = Array.length arr - 1 downto 0 do
    (* first match in registry order wins, so only earlier entries shadow *)
    let found = ref None in
    for i = 0 to j - 1 do
      if
        !found = None
        && Matcher.source_covers arr.(i).rule arr.(j).rule
        && pre_covers arr.(i) arr.(j)
      then found := Some arr.(i)
    done;
    match !found with
    | None -> ()
    | Some winner ->
        let e = arr.(j).entry in
        out :=
          {
            diag =
              D.make ~rule:"shadowing.subsumed" ~severity:D.Warning
                ~where:
                  (D.span ~file:e.Entry.file
                     arr.(j).t.Alive.Ast.locs.Alive.Ast.header_line)
                ~hint:
                  "reorder the entries or strengthen the earlier \
                   precondition if both are intended to fire"
                (Printf.sprintf
                   "source pattern is subsumed by earlier entry %S \
                    (first-match-wins: this rule can never fire)"
                   winner.entry.Entry.name);
            transform = e.Entry.name;
            allowlisted = false;
          }
          :: !out
  done;
  !out

(* The cyclic SCCs of the "target of A feeds source of B" graph. A cycle
   means Opt.Pass would rewrite in circles until its budget guard trips. *)
let rewrite_cycles (rules : exec_rule list) =
  let arr = Array.of_list rules in
  List.map
    (fun members ->
      let names = List.map (fun v -> arr.(v).entry.Entry.name) members in
      let e = arr.(List.hd members).entry in
      {
        diag =
          D.make ~rule:"rewrite-cycle.scc" ~severity:D.Warning
            ~where:
              (D.span ~file:e.Entry.file
                 arr.(List.hd members).t.Alive.Ast.locs.Alive.Ast.header_line)
            ~hint:
              "mark one direction anti-canonical, or the fixpoint pass only \
               stops on its rewrite budget (preconditions are ignored by this \
               check)"
            (Printf.sprintf "rewrite cycle among: %s"
               (String.concat " -> " (names @ [ List.hd names ])));
        transform = e.Entry.name;
        allowlisted = false;
      })
    (Matcher.cyclic_sccs (Array.map (fun r -> r.rule) arr))

(* ---- Drivers ---- *)

let lint_corpus ?jobs (entries : Entry.t list) : report =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Alive_engine.Engine.map ?jobs
      ~label:(fun (e : Entry.t) -> e.Entry.name)
      lint_entry entries
  in
  let per_entry =
    List.concat_map
      (fun (o : _ Alive_engine.Engine.outcome) ->
        match o.Alive_engine.Engine.result with
        | Ok fs -> fs
        | Error e ->
            [
              {
                diag =
                  D.make ~rule:"lint.crash" ~severity:D.Error
                    ~where:(D.span ~file:o.Alive_engine.Engine.label 1)
                    (Printf.sprintf "lint crashed: %s"
                       e.Alive_engine.Engine.message);
                transform = o.Alive_engine.Engine.label;
                allowlisted = false;
              }
            ])
      outcomes
  in
  let rules = executable_rules entries in
  let corpus =
    duplicate_names entries @ shadowing rules @ rewrite_cycles rules
  in
  {
    findings = per_entry @ corpus;
    entries = List.length entries;
    wall = Unix.gettimeofday () -. t0;
  }

(* Lint a standalone file (already parsed): no registry context, so the
   corpus analyses reduce to what is visible inside the file. *)
let lint_transforms ?file (ts : Alive.Ast.transform list) : report =
  let t0 = Unix.gettimeofday () in
  let wrap (t : Alive.Ast.transform) diag =
    { diag; transform = t.Alive.Ast.name; allowlisted = false }
  in
  let per_transform =
    List.concat_map (fun t -> List.map (wrap t) (Rules.check ?file t)) ts
  in
  let pseudo =
    List.mapi
      (fun i (t : Alive.Ast.transform) ->
        let name =
          if t.Alive.Ast.name = "" then Printf.sprintf "#%d" (i + 1)
          else t.Alive.Ast.name
        in
        Entry.make
          ~file:(Option.value ~default:"<input>" file)
          name
          (Format.asprintf "%a" Alive.Ast.pp_transform t))
      ts
  in
  (* re-derive locs-accurate rules from the original transforms *)
  let rules =
    List.filter_map
      (fun (p, t) ->
        match Matcher.rule_of_transform t with
        | Ok rule -> Some { entry = p; t; rule }
        | Error _ -> None)
      (List.combine pseudo ts)
  in
  let corpus = duplicate_names pseudo @ shadowing rules @ rewrite_cycles rules in
  {
    findings = per_transform @ corpus;
    entries = List.length ts;
    wall = Unix.gettimeofday () -. t0;
  }

(* ---- Filtering and summarizing ---- *)

let matches_rule pat (d : D.t) = d.D.rule = pat || D.rule_family d = pat

let filter ?rule ?(threshold = D.Info) (r : report) =
  let keep (f : finding) =
    D.severity_rank f.diag.D.severity >= D.severity_rank threshold
    && match rule with None -> true | Some pat -> matches_rule pat f.diag
  in
  { r with findings = List.filter keep r.findings }

let count ?(allowlisted = false) sev (r : report) =
  List.length
    (List.filter
       (fun f ->
         f.allowlisted = allowlisted
         && D.severity_rank f.diag.D.severity >= D.severity_rank sev)
       r.findings)

let gating ?(threshold = D.Error) (r : report) =
  List.filter
    (fun f ->
      (not f.allowlisted)
      && D.severity_rank f.diag.D.severity >= D.severity_rank threshold)
    r.findings

(* ---- Rendering ---- *)

let render_finding (f : finding) =
  let allow = if f.allowlisted then " (allowlisted)" else "" in
  let d = f.diag in
  let hint = match d.D.hint with None -> "" | Some h -> "\n  hint: " ^ h in
  let who = if f.transform = "" then "" else f.transform ^ ": " in
  Printf.sprintf "%s:%d: %s: %s%s [%s]%s%s" d.D.where.D.file d.D.where.D.line
    (D.severity_name d.D.severity)
    who d.D.message d.D.rule allow hint

let print_table ?(oc = stdout) (r : report) =
  List.iter (fun f -> Printf.fprintf oc "%s\n" (render_finding f)) r.findings;
  Printf.fprintf oc
    "%d finding(s) over %d entr%s: %d error(s), %d warning(s), %d info \
     (%d allowlisted) in %.3fs\n"
    (List.length r.findings) r.entries
    (if r.entries = 1 then "y" else "ies")
    (count D.Error r)
    (count D.Warning r - count D.Error r)
    (count D.Info r - count D.Warning r)
    (List.length (List.filter (fun f -> f.allowlisted) r.findings))
    r.wall

let finding_json (f : finding) =
  let d = f.diag in
  Json.Obj
    ([
       ("rule", Json.String d.D.rule);
       ("severity", Json.String (D.severity_name d.D.severity));
       ("file", Json.String d.D.where.D.file);
       ("line", Json.Int d.D.where.D.line);
       ("transform", Json.String f.transform);
       ("message", Json.String d.D.message);
     ]
    @ (match d.D.hint with
      | Some h -> [ ("hint", Json.String h) ]
      | None -> [])
    @ [ ("allowlisted", Json.Bool f.allowlisted) ])

let to_json (r : report) =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("entries", Json.Int r.entries);
      ("findings", Json.List (List.map finding_json r.findings));
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Int (count D.Error r));
            ( "warnings",
              Json.Int (count D.Warning r - count D.Error r) );
            ("infos", Json.Int (count D.Info r - count D.Warning r));
            ( "allowlisted",
              Json.Int
                (List.length (List.filter (fun f -> f.allowlisted) r.findings))
            );
            ("gating_errors", Json.Int (List.length (gating r)));
          ] );
      ("wall_s", Json.Float r.wall);
    ]
