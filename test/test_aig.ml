(* Tests for the wide-width solve path: the AIG simplification pass and
   the CNF it emits. The pass is meant to be invisible in verdicts — the
   differential tests here run real corpus slices with it on and off and
   demand identical answers — while the QCheck properties pin down the
   structural-hashing algebra the AIG layer relies on, and golden digests
   pin the clauses both encoders emit. Every test saves and restores the
   global switches it flips. *)

module Solve = Alive_smt.Solve
module Bitblast = Alive_smt.Bitblast
module Aig = Alive_smt.Aig
module Term = Alive_smt.Term
module Model = Alive_smt.Model
module Refine = Alive.Refine
module Entry = Alive_suite.Entry

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let parse = Alive.Parser.parse_transform

let with_aig on f =
  let was = Bitblast.simplify () in
  Bitblast.set_simplify on;
  Alive_smt.Vc_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Bitblast.set_simplify was;
      Alive_smt.Vc_cache.clear ())
    f

(* Fingerprint: verdict constructor, failing instruction/criterion, and
   unknown reason. Counterexample models are deliberately NOT compared:
   the AIG pass renumbers CNF variables, so the SAT solver may pick a
   different (equally genuine — Refine validates it against the concrete
   semantics) witness for the same Invalid verdict. *)
let fingerprint v = Format.asprintf "%a" Refine.pp_verdict v

let check_parity base off =
  List.iter2
    (fun (name, f_on) (name', f_off) ->
      check_string "same entry order" name name';
      check_string name f_on f_off)
    base off

(* --- AIG on/off differential --- *)

let aig_differential_tests =
  [
    Alcotest.test_case "AIG on/off: verdict parity at widths 1-6" `Slow
      (fun () ->
        (* The whole corpus, every entry forced through widths 1..6
           (within any declared cap so expected verdicts still hold),
           solved with the AIG pass on and off. Verdicts, failing
           instructions and unknown reasons must be identical: the pass
           must only reshape the CNF, never the answer. *)
        let widths_of (e : Entry.t) =
          match e.widths with
          | None -> Some [ 1; 2; 3; 4; 5; 6 ]
          | Some ws ->
              let ws = List.filter (fun w -> w <= 6) ws in
              if ws = [] then None else Some ws
        in
        let run () =
          let sum = Solve.telemetry () in
          let verdicts =
            List.filter_map
              (fun (e : Entry.t) ->
                match widths_of e with
                | None -> None
                | Some widths ->
                    let r = Refine.run ~widths (Entry.parse e) in
                    Solve.add_telemetry ~into:sum r.stats.telemetry;
                    Some (e.name, fingerprint r.verdict))
              Alive_suite.Registry.all
          in
          (verdicts, sum)
        in
        let on, on_sum = with_aig true run in
        let off, off_sum = with_aig false run in
        check_bool "corpus slice is non-trivial" true (List.length on > 150);
        check_parity on off;
        (* What the solver did with each path's CNF, summed over every
           query the slice solves: this pins the clauses of each gate set
           on the whole corpus, where the golden digests below pin four
           queries. *)
        let counts (t : Solve.telemetry) =
          [ t.checks; t.conflicts; t.decisions; t.clauses; t.vars;
            t.aig_nodes_in; t.aig_nodes_out ]
        in
        let label = "checks, conflicts, decisions, clauses, vars, AIG in, out" in
        Alcotest.(check (list int)) ("AIG path: " ^ label)
          [ 779; 24_876; 49_534; 139_189; 44_821; 183_092; 70_235 ]
          (counts on_sum);
        Alcotest.(check (list int)) ("direct path: " ^ label)
          [ 779; 31_192; 69_259; 164_261; 46_007; 0; 0 ]
          (counts off_sum));
    Alcotest.test_case "AIG pass actually reduces gates" `Quick (fun () ->
        (* Distribution over multiplication circuits has plenty of
           reconvergent structure; the pass must strictly shrink it.
           (Term-level hash-consing would collapse a plain commutativity
           check before it ever reached the gate level.) *)
        let w = 4 in
        let x = Term.var "x" (Term.Bv w)
        and y = Term.var "y" (Term.Bv w)
        and z = Term.var "z" (Term.Bv w) in
        let t =
          Term.not_
            (Term.eq
               (Term.bbin Term.Mul x (Term.bbin Term.Add y z))
               (Term.bbin Term.Add (Term.bbin Term.Mul x y)
                  (Term.bbin Term.Mul x z)))
        in
        with_aig true (fun () ->
            let ctx = Bitblast.create () in
            Bitblast.assert_formula ctx t;
            (match Bitblast.check ctx with
            | `Unsat -> ()
            | _ -> Alcotest.fail "mul distribution should be UNSAT");
            match Bitblast.aig_stats ctx with
            | None -> Alcotest.fail "AIG stats missing with simplify on"
            | Some s ->
                check_bool "gates were requested" true (s.n_requests > 0);
                check_bool
                  (Printf.sprintf "strashing reduced %d requests to %d nodes"
                     s.n_requests s.n_ands)
                  true
                  (s.n_ands < s.n_requests)));
  ]

(* --- QCheck: structural-hashing algebra --- *)

let lit = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000)

(* A fresh graph with [n] inputs plus a pile of random internal nodes to
   make the rewrite rules reachable, then a random existing literal. *)
let random_graph_and_lits =
  QCheck.make
    ~print:(fun (seeds, _) ->
      Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int seeds)))
    QCheck.Gen.(
      let* seeds = list_size (int_range 2 30) (int_bound 10_000) in
      return (seeds, ()))

let build_graph seeds =
  let g = Aig.create () in
  let inputs = Array.init 4 (fun _ -> Aig.input g) in
  let pool = ref (Array.to_list inputs @ [ Aig.false_; Aig.true_ ]) in
  let pick s =
    let l = !pool in
    List.nth l (abs s mod List.length l)
  in
  List.iter
    (fun s ->
      let a = pick s and b = pick (s / 7) in
      let l =
        match s mod 3 with
        | 0 -> Aig.and_ g a b
        | 1 -> Aig.or_ g a b
        | _ -> Aig.xor_ g a b
      in
      pool := l :: !pool)
    seeds;
  (g, !pool)

let strash_props =
  [
    QCheck.Test.make ~name:"and_ is deterministic and commutative" ~count:200
      random_graph_and_lits (fun (seeds, ()) ->
        let g, pool = build_graph seeds in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let ab = Aig.and_ g a b in
                ab = Aig.and_ g a b && ab = Aig.and_ g b a)
              pool)
          pool);
    QCheck.Test.make ~name:"local rewrite identities hold" ~count:200
      random_graph_and_lits (fun (seeds, ()) ->
        let g, pool = build_graph seeds in
        List.for_all
          (fun a ->
            Aig.not_ (Aig.not_ a) = a
            && Aig.and_ g a Aig.false_ = Aig.false_
            && Aig.and_ g a Aig.true_ = a
            && Aig.and_ g a a = a
            && Aig.and_ g a (Aig.not_ a) = Aig.false_
            && Aig.xor_ g a a = Aig.false_
            && Aig.xor_ g a Aig.false_ = a)
          pool);
    QCheck.Test.make ~name:"strashing is contractive (nodes <= requests)"
      ~count:100 random_graph_and_lits (fun (seeds, ()) ->
        let g, _ = build_graph seeds in
        let s = Aig.stats g in
        s.Aig.n_ands <= s.Aig.n_requests);
  ]

(* Soundness through the solver: random width-4 formulas must get the same
   answer with and without the pass, and Sat models must actually satisfy
   the formula (so the reduced graph still encodes it). *)
let random_formula =
  let open QCheck.Gen in
  let bv_ops = [| Term.Add; Term.Sub; Term.Mul; Term.Band; Term.Bor; Term.Bxor |] in
  let rec bv depth =
    if depth = 0 then
      oneof
        [
          return (Term.var "a" (Term.Bv 4));
          return (Term.var "b" (Term.Bv 4));
          map (fun n -> Term.const (Bitvec.of_int ~width:4 n)) (int_bound 15);
        ]
    else
      let* op = map (fun i -> bv_ops.(i)) (int_bound (Array.length bv_ops - 1)) in
      let* l = bv (depth - 1) and* r = bv (depth - 1) in
      return (Term.bbin op l r)
  in
  let* d1 = int_range 1 3 and* d2 = int_range 1 3 in
  let* l = bv d1 and* r = bv d2 in
  let* cmp = int_bound 2 in
  return
    (match cmp with
    | 0 -> Term.eq l r
    | 1 -> Term.ult l r
    | _ -> Term.not_ (Term.eq l r))

let formula_print t = Format.asprintf "%a" Term.pp t

let solver_soundness_props =
  [
    QCheck.Test.make
      ~name:"random formulas: AIG on/off answer parity + model soundness"
      ~count:150
      (QCheck.make ~print:formula_print random_formula)
      (fun t ->
        let solve on =
          with_aig on (fun () -> Solve.check_sat [ t ])
        in
        match (solve true, solve false) with
        | Solve.Sat m, Solve.Sat m' ->
            Model.holds m t && Model.holds m' t
        | Solve.Unsat, Solve.Unsat -> true
        | _ -> false);
  ]

(* --- Telemetry --- *)

let telemetry_tests =
  [
    Alcotest.test_case "telemetry folds AIG counters" `Quick (fun () ->
        let a = Solve.telemetry () and b = Solve.telemetry () in
        a.Solve.aig_nodes_in <- 100;
        a.Solve.aig_nodes_out <- 40;
        b.Solve.aig_nodes_in <- 10;
        Solve.add_telemetry ~into:b a;
        check_int "aig_nodes_in sums" 110 b.Solve.aig_nodes_in;
        check_int "aig_nodes_out sums" 40 b.Solve.aig_nodes_out);
  ]

(* --- AIGER dump --- *)

let dump_tests =
  [
    Alcotest.test_case "dump-aig writes AIGER ASCII files" `Quick (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "alive-aig-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Solve.set_dump_aig_dir (Some dir);
        (* An invalid transform: the static tier cannot prove it, so the
           solver runs. *)
        Fun.protect
          ~finally:(fun () -> Solve.set_dump_aig_dir None)
          (fun () ->
            ignore
              (with_aig true (fun () ->
                   Refine.check
                     (parse "%r = udiv %a, %b\n=>\n%r = lshr %a, 1\n"))));
        let dumped =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".aag")
        in
        check_bool "at least one .aag dumped" true (dumped <> []);
        List.iter
          (fun f ->
            let path = Filename.concat dir f in
            let lines = In_channel.with_open_text path In_channel.input_lines in
            (match lines with
            | header :: _ ->
                check_bool (f ^ " starts with an aag header") true
                  (Astring.String.is_prefix ~affix:"aag " header);
                (* "aag M I L O A": M >= I + A, L = 0 (combinational). *)
                (match
                   String.split_on_char ' ' header |> List.tl
                   |> List.map int_of_string
                 with
                | [ m; i; l; o; a ] ->
                    check_int (f ^ " is combinational") 0 l;
                    check_bool (f ^ " has outputs") true (o > 0);
                    check_bool (f ^ " node count covers inputs+ands") true
                      (m >= i + a)
                | _ -> Alcotest.fail (f ^ ": malformed aag header"))
            | [] -> Alcotest.fail (f ^ ": empty file"));
            Sys.remove path)
          dumped;
        Unix.rmdir dir);
  ]

(* --- Golden CNF ---

   Conflict counts, the benchmark's exact-count checks and the committed
   ledger baselines all depend on the exact clauses, and their order, that
   the encoders emit. These digests of [Bitblast.export] for four i8
   queries pin both the AIG path and the direct path; the fourth reaches
   every construct of the core fragment the first three miss. A deliberate
   encoding change must update these values — and by doing so declares
   every recorded count stale, so re-record the ledger baselines with it. *)

let golden_cnf_tests =
  let x = Term.var "x" (Term.Bv 8)
  and y = Term.var "y" (Term.Bv 8)
  and z = Term.var "z" (Term.Bv 8) in
  let queries =
    [
      ( "mul",
        Term.not_
          (Term.eq
             (Term.mul x (Term.add y z))
             (Term.add (Term.mul x y) (Term.mul x z))) );
      ("udiv", Term.not_ (Term.ule (Term.udiv x y) x));
      ( "variable shift",
        Term.not_
          (Term.eq
             (Term.lshr (Term.shl x y) y)
             (Term.band x (Term.lshr (Term.all_ones 8) y))) );
      ( "Booleans and casts",
        let b = Term.var "b" Term.Bool in
        Term.and_
          [
            Term.or_ [ b; Term.slt (Term.sext x 16) (Term.zext y 16) ];
            Term.eq b
              (Term.ult
                 (Term.bxor x (Term.bnot z))
                 (Term.bor y (Term.ashr z (Term.const_int ~width:8 3))));
            Term.not_
              (Term.eq
                 (Term.concat
                    (Term.extract ~hi:3 ~lo:0 x)
                    (Term.extract ~hi:7 ~lo:4 y))
                 (Term.ite b (Term.sub z x) y));
          ] );
    ]
  in
  let golden =
    [
      (true, "mul", "aaaab5c73c97a52dec2b0845701e7cf0");
      (true, "udiv", "a031812d5d14787aa6d8c43cc7fff7a8");
      (true, "variable shift", "98a724e2cd47dfa6ce05904551cc8cdb");
      (true, "Booleans and casts", "72f9ed2ab028ab250ab288a8f086a9e5");
      (false, "mul", "5c377df585f11cb3d5594b4602de65c3");
      (false, "udiv", "1ad3f472fe50accfc40b219479a475fa");
      (false, "variable shift", "238dfd66f49e6ad2d50da8b22601bc7a");
      (false, "Booleans and casts", "58518c217bf1ffe7064f255dc6aee9b2");
    ]
  in
  [
    Alcotest.test_case "golden CNF digests, AIG and direct paths" `Quick
      (fun () ->
        List.iter
          (fun (aig, name, expected) ->
            let digest =
              with_aig aig (fun () ->
                  let ctx = Bitblast.create () in
                  Bitblast.assert_formula ctx (List.assoc name queries);
                  let nvars, clauses = Bitblast.export ctx in
                  Digest.to_hex
                    (Digest.string (Alive_sat.Dimacs.print ~nvars clauses)))
            in
            check_string
              (Printf.sprintf "%s (%s)" name (if aig then "AIG" else "direct"))
              expected digest)
          golden);
  ]

(* The suite keeps the name it had when it also tested the query
   splitter, so its cases keep their ids. *)
let suite =
  ( "aig-cubes",
    aig_differential_tests
    @ List.map QCheck_alcotest.to_alcotest
        (strash_props @ solver_soundness_props)
    @ telemetry_tests @ dump_tests @ golden_cnf_tests )
