(* Tests for the CDCL SAT solver: hand-written instances, structured UNSAT
   families (pigeonhole, parity chains), and random 3-SAT cross-checked
   against brute-force enumeration. *)

module S = Alive_sat.Solver
module Dimacs = Alive_sat.Dimacs

let check_bool = Alcotest.(check bool)

let fresh_vars s n = List.init n (fun _ -> S.new_var s)

(* Brute-force satisfiability of [clauses] over [nvars] variables, where a
   clause is a list of (var, sign). *)
let brute_force nvars clauses =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (List.exists (fun (x, sign) -> List.nth assignment x = sign))
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 0

let solve_clauses nvars clauses =
  let s = S.create () in
  let vars = fresh_vars s nvars in
  List.iter
    (fun clause ->
      S.add_clause s
        (List.map (fun (x, sign) -> S.mk_lit (List.nth vars x) sign) clause))
    clauses;
  let sat = S.solve s in
  if sat then begin
    (* The model must actually satisfy every clause. *)
    let ok =
      List.for_all
        (List.exists (fun (x, sign) ->
             S.value s (S.mk_lit (List.nth vars x) sign)))
        clauses
    in
    Alcotest.(check bool) "model satisfies all clauses" true ok
  end;
  sat

(* Pigeonhole principle PHP(n+1, n): unsatisfiable, exercises learning. *)
let pigeonhole holes =
  let pigeons = holes + 1 in
  let s = S.create () in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> S.new_var s)) in
  for p = 0 to pigeons - 1 do
    S.add_clause s (List.init holes (fun h -> S.mk_lit var.(p).(h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        S.add_clause s [ S.mk_lit var.(p1).(h) false; S.mk_lit var.(p2).(h) false ]
      done
    done
  done;
  S.solve s

(* XOR chain x0 ⊕ x1 ⊕ ... ⊕ x(n-1) = parity, as CNF. *)
let xor_chain s vars parity =
  (* Introduce running-parity helpers t_i = x_0 ⊕ ... ⊕ x_i. *)
  let xor_cnf a b c =
    (* c = a ⊕ b *)
    S.add_clause s [ S.mk_lit c false; S.mk_lit a true; S.mk_lit b true ];
    S.add_clause s [ S.mk_lit c false; S.mk_lit a false; S.mk_lit b false ];
    S.add_clause s [ S.mk_lit c true; S.mk_lit a true; S.mk_lit b false ];
    S.add_clause s [ S.mk_lit c true; S.mk_lit a false; S.mk_lit b true ]
  in
  match vars with
  | [] -> ()
  | x0 :: rest ->
      let acc =
        List.fold_left
          (fun acc x ->
            let t = S.new_var s in
            xor_cnf acc x t;
            t)
          x0 rest
      in
      S.add_clause s [ S.mk_lit acc parity ]

let unit_tests =
  [
    Alcotest.test_case "empty instance is sat" `Quick (fun () ->
        let s = S.create () in
        check_bool "sat" true (S.solve s));
    Alcotest.test_case "single unit" `Quick (fun () ->
        let s = S.create () in
        let v = S.new_var s in
        S.add_clause s [ S.mk_lit v true ];
        check_bool "sat" true (S.solve s);
        check_bool "model" true (S.value s (S.mk_lit v true)));
    Alcotest.test_case "contradictory units" `Quick (fun () ->
        let s = S.create () in
        let v = S.new_var s in
        S.add_clause s [ S.mk_lit v true ];
        S.add_clause s [ S.mk_lit v false ];
        check_bool "unsat" false (S.solve s));
    Alcotest.test_case "empty clause" `Quick (fun () ->
        let s = S.create () in
        S.add_clause s [];
        check_bool "unsat" false (S.solve s));
    Alcotest.test_case "simple implication chain" `Quick (fun () ->
        let s = S.create () in
        let vs = Array.of_list (fresh_vars s 20) in
        for i = 0 to 18 do
          S.add_clause s [ S.mk_lit vs.(i) false; S.mk_lit vs.(i + 1) true ]
        done;
        S.add_clause s [ S.mk_lit vs.(0) true ];
        check_bool "sat" true (S.solve s);
        check_bool "last implied" true (S.value s (S.mk_lit vs.(19) true)));
    Alcotest.test_case "2-SAT unsat cycle" `Quick (fun () ->
        check_bool "unsat" false
          (solve_clauses 2
             [
               [ (0, true); (1, true) ];
               [ (0, true); (1, false) ];
               [ (0, false); (1, true) ];
               [ (0, false); (1, false) ];
             ]));
    Alcotest.test_case "pigeonhole 3 unsat" `Quick (fun () ->
        check_bool "unsat" false (pigeonhole 3));
    Alcotest.test_case "pigeonhole 5 unsat" `Quick (fun () ->
        check_bool "unsat" false (pigeonhole 5));
    Alcotest.test_case "pigeonhole 7 unsat" `Slow (fun () ->
        check_bool "unsat" false (pigeonhole 7));
    Alcotest.test_case "xor chain parity conflict" `Quick (fun () ->
        let s = S.create () in
        let vars = fresh_vars s 12 in
        xor_chain s vars true;
        xor_chain s vars false;
        check_bool "unsat" false (S.solve s));
    Alcotest.test_case "xor chain satisfiable" `Quick (fun () ->
        let s = S.create () in
        let vars = fresh_vars s 12 in
        xor_chain s vars true;
        check_bool "sat" true (S.solve s));
    Alcotest.test_case "incremental clause addition" `Quick (fun () ->
        let s = S.create () in
        let vs = Array.of_list (fresh_vars s 4) in
        S.add_clause s [ S.mk_lit vs.(0) true; S.mk_lit vs.(1) true ];
        check_bool "sat 1" true (S.solve s);
        S.add_clause s [ S.mk_lit vs.(0) false ];
        check_bool "sat 2" true (S.solve s);
        check_bool "v1 forced" true (S.value s (S.mk_lit vs.(1) true));
        S.add_clause s [ S.mk_lit vs.(1) false ];
        check_bool "unsat" false (S.solve s);
        (* Once unsat at level 0, the instance stays unsat. *)
        check_bool "still unsat" false (S.solve s));
    Alcotest.test_case "dimacs roundtrip" `Quick (fun () ->
        let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
        let nvars, clauses = Dimacs.parse text in
        Alcotest.(check int) "nvars" 3 nvars;
        Alcotest.(check int) "nclauses" 2 (List.length clauses);
        let printed = Dimacs.print ~nvars clauses in
        let nvars', clauses' = Dimacs.parse printed in
        Alcotest.(check int) "nvars roundtrip" nvars nvars';
        Alcotest.(check int) "nclauses roundtrip" (List.length clauses)
          (List.length clauses'));
    Alcotest.test_case "dimacs load and solve" `Quick (fun () ->
        let s = S.create () in
        Dimacs.load_into s "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n";
        check_bool "unsat" false (S.solve s));
  ]

(* Random 3-SAT instances near the phase transition, checked against brute
   force. Small variable counts keep enumeration fast. *)
let random_3sat_test =
  let gen =
    let open QCheck2.Gen in
    let* nvars = int_range 3 10 in
    let* nclauses = int_range 1 (nvars * 5) in
    let gen_clause =
      list_repeat 3
        (let* v = int_range 0 (nvars - 1) in
         let* sign = bool in
         return (v, sign))
    in
    let* clauses = list_repeat nclauses gen_clause in
    return (nvars, clauses)
  in
  let print (nvars, clauses) =
    Printf.sprintf "nvars=%d clauses=%s" nvars
      (String.concat ";"
         (List.map
            (fun c ->
              String.concat ","
                (List.map (fun (v, s) -> (if s then "" else "-") ^ string_of_int v) c))
            clauses))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"random 3-SAT agrees with brute force"
       ~print gen (fun (nvars, clauses) ->
         Bool.equal (solve_clauses nvars clauses) (brute_force nvars clauses)))

let suite = ("sat", unit_tests @ [ random_3sat_test ])
