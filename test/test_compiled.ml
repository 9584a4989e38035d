(* Tests for the compiled decision-tree matcher. The pass trusts the trie to
   return, in registry order, every rule that matches at a definition; one
   property checks that against the per-rule scan, and four cases run it over
   the workload pools below and over every state the pass goes through on one
   more pool. *)

module Compiled = Alive_opt.Compiled
module Matcher = Alive_opt.Matcher
module Workload = Alive_opt.Workload
module Pass = Alive_opt.Pass

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let valid_rules = Matcher.corpus_rules ()

let tree = lazy (Compiled.build valid_rules)

let structure_tests =
  [
    Alcotest.test_case "tree compiles the whole ruleset" `Quick (fun () ->
        let t = Lazy.force tree in
        check_int "every rule kept" (List.length valid_rules)
          (List.length (Compiled.rule_list t));
        check_bool "non-trivial trie" true
          (Compiled.node_count t > List.length valid_rules);
        check_bool "patterns nest" true (Compiled.max_depth t >= 1));
    Alcotest.test_case "rewrite graph has cycles to guard" `Quick (fun () ->
        (* add-neg-is-sub / sub-is-add-neg style pairs make the corpus's
           target-feeds graph cyclic; the pass's cycle cap relies on the
           membership set being non-empty here. *)
        check_bool "some rules in cycles" true
          (Compiled.cyclic_count (Lazy.force tree) > 0));
  ]

(* Registry position of each rule, by physical identity. *)
let positions = List.mapi (fun i r -> (r, i)) valid_rules

(* The sites of [f] where the property fails: the candidate list must
   ascend in registry order and contain every rule the per-rule scan (the
   oracle) accepts, and [match_def] must return the scan's first rule.
   Since a rule that does not match has no effect in [Pass.try_fire], this
   makes the pass's choice at every site the scan's. *)
let failures (f : Ir.func) =
  let ctx = Compiled.context (Lazy.force tree) f in
  List.filter_map
    (fun (d : Ir.def) ->
      let cands = Compiled.candidates ctx d in
      let oracle =
        List.filter
          (fun r -> Matcher.match_at r f d.Ir.name <> None)
          valid_rules
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | [ _ ] | [] -> true
      in
      let fail fmt =
        Printf.ksprintf
          (fun msg -> Some (Printf.sprintf "%s/%s: %s" f.Ir.fname d.Ir.name msg))
          fmt
      in
      let name = function
        | Some (r : Matcher.rule) -> r.rule_name
        | None -> "-"
      in
      if not (ascending (List.map (fun r -> List.assq r positions) cands)) then
        fail "candidates out of registry order"
      else
        match List.find_opt (fun r -> not (List.memq r cands)) oracle with
        | Some r -> fail "candidates miss %s" r.rule_name
        | None -> (
            match (Compiled.match_def ctx d, oracle) with
            | None, [] -> None
            | Some (r, _), first :: _ when r == first -> None
            | m, _ ->
                fail "match_def gave %s, the scan %s"
                  (name (Option.map fst m))
                  (name (List.nth_opt oracle 0))))
    f.Ir.body

let pool ?(inject_probability = Workload.default.inject_probability) seed
    functions =
  Workload.generate
    { Workload.default with seed; functions; inject_probability }
    valid_rules

(* [f] and the function after each of the pass's firings, the last being
   its fixpoint. *)
let pass_states (f : Ir.func) =
  let firings =
    List.fold_left (fun a (_, n) -> a + n) 0
      (Pass.run_guarded ~rules:valid_rules f).Pass.stats
  in
  f
  :: List.init firings (fun k ->
         (Pass.run_guarded ~rules:valid_rules ~max_rewrites:(k + 1) f).Pass.func)

(* Run the property over [funcs], printing the site count and the first ten
   failing sites. *)
let check_property funcs =
  let sites =
    List.fold_left (fun a (f : Ir.func) -> a + List.length f.Ir.body) 0 funcs
  in
  let bad = List.concat_map failures funcs in
  Printf.printf "%d sites in %d functions; %d failing\n" sites
    (List.length funcs) (List.length bad);
  List.iteri (fun i msg -> if i < 10 then print_endline msg) bad;
  check_int "sites failing the property" 0 (List.length bad)

let property_tests =
  [
    Alcotest.test_case "candidates never miss a matching rule" `Quick
      (fun () -> check_property (pool 9 40));
    Alcotest.test_case "agrees with the scan on corpus instantiations" `Slow
      (fun () ->
        (* every instruction group an instantiated corpus source, so each
           pattern appears in matchable position *)
        check_property
          (pool ~inject_probability:1.0 31 150
          @ pool ~inject_probability:1.0 101 250));
    Alcotest.test_case "agrees with the scan on 1000 random functions" `Slow
      (fun () ->
        (* two pools of 1000 default-mix functions, and seed 42's 100 *)
        check_property (pool 57 1000 @ pool 202 1000 @ pool 42 100));
    Alcotest.test_case "pass fixpoint is engine-independent" `Slow (fun () ->
        (* The property at every state the pass goes through makes each of
           its choices, and so its fixpoint, the scan's. *)
        check_property (List.concat_map pass_states (pool 83 100)));
  ]

(* The fixpoint pass (compiled tree, worklist discipline, cycle guard,
   analysis-discharged preconditions) must preserve behaviour: optimized
   functions refine the originals on sampled input tuples. *)
let equivalence_property =
  let gen = QCheck2.Gen.int_range 0 10_000 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"compiled-pass output refines the input on sampled tuples"
       ~print:string_of_int gen (fun seed ->
         let config =
           {
             Workload.default with
             functions = 4;
             seed;
             instructions_per_function = 30;
           }
         in
         let funcs = Workload.generate config valid_rules in
         let st = Random.State.make [| seed lxor 0x5eed |] in
         List.for_all
           (fun (f : Ir.func) ->
             let g, _ = Pass.run ~rules:valid_rules f in
             List.for_all
               (fun _ ->
                 let args =
                   List.map
                     (fun (_, w) ->
                       Bitvec.make ~width:w (Random.State.int64 st Int64.max_int))
                     f.Ir.params
                 in
                 match (Interp.run f args, Interp.run g args) with
                 | Ok src, Ok tgt -> Interp.refines src tgt
                 | _ -> false)
               (List.init 12 Fun.id))
           funcs))

let cyclic_names_test =
  Alcotest.test_case "cyclic rule names are pinned" `Quick (fun () ->
      let t = Lazy.force tree in
      Alcotest.(check (list string))
        "rules in a cyclic SCC of the rewrite graph"
        [
          "AndOrXor:sext-and-is-select";
          "AndOrXor:sext-or-is-select";
          "MulDivRem:srem-neg-const";
          "Select:and-arms";
          "Select:or-arms";
        ]
        (List.filter_map
           (fun (r : Matcher.rule) ->
             if Compiled.in_cycle t r.rule_name then Some r.rule_name else None)
           valid_rules);
      check_int "cyclic_count" 5 (Compiled.cyclic_count t))

let suite =
  ( "compiled",
    structure_tests @ property_tests @ [ equivalence_property; cyclic_names_test ]
  )
