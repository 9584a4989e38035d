(* Tests for the benchmark's own logic: the tail-percentile rule, failure
   accounting, the output oracles and span self-time attribution. *)

module Stats = Perfbench.Stats
module Oracle = Perfbench.Oracle
module Attrib = Perfbench.Attrib

let close = Alcotest.float 1e-9

let test_tail_rule () =
  Alcotest.check close "218 samples report p95" 95.0 (Stats.tail_percentile 218);
  Alcotest.check close "392 samples report p95" 95.0 (Stats.tail_percentile 392);
  Alcotest.check close "1000 samples report p99" 99.0
    (Stats.tail_percentile 1000);
  Alcotest.check close "10000 samples report p99.9" 99.9
    (Stats.tail_percentile 10000);
  Alcotest.check close "too few samples fall back to p50" 50.0
    (Stats.tail_percentile 19);
  let t = Stats.tally () in
  for i = 1 to 218 do
    Stats.record t ~ok:true (float i)
  done;
  (* nearest rank: ceil (0.95 * 218) = 208 *)
  Alcotest.check close "p95 of 1..218" 208.0 (Stats.tail t);
  Alcotest.check close "p50 of 1..218" 109.0 (Stats.p50 t)

let test_failure_accounting () =
  let t = Stats.tally () in
  List.iter (fun l -> Stats.record t ~ok:true l) [ 1.0; 2.0; 3.0 ];
  Stats.record t ~ok:false 1000.0;
  Alcotest.(check int) "attempted" 4 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  Alcotest.(check int) "a failed operation leaves no latency" 3
    (List.length (Stats.latencies t));
  Alcotest.check close "nor reaches the maximum" 3.0
    (Stats.percentile (Stats.latencies t) 100.0);
  Alcotest.check close "rate counts successes over their time" 0.5
    (Stats.rate t)

(* Two passes over four operations, cut into runs of at least 4 s in the
   first pass: the first run is faster in pass [a], the others in pass
   [b], even though [b]'s first operation alone beats [a]'s. *)
let test_best_chunks () =
  let pass l =
    let t = Stats.tally () in
    List.iter (fun x -> Stats.record t ~ok:(x > 0.0) x) l;
    t
  in
  let a = pass [ 2.0; 2.0; 5.0; 5.0 ] and b = pass [ 1.0; 4.0; 3.0; 3.0 ] in
  let best = Stats.best_chunks ~chunk_s:4.0 [ a; b ] in
  Alcotest.(check (list (float 1e-9))) "run-wise best, in order"
    [ 2.0; 2.0; 3.0; 3.0 ] (Stats.latencies best);
  Alcotest.(check int) "one sample per operation" 4 best.attempted;
  let c = pass [ 1.0; 1.0; 1.0; -1.0 ] in
  let best = Stats.best_chunks ~chunk_s:4.0 [ a; c ] in
  Alcotest.(check int) "a failure in the chosen run is kept" 1 best.failed

let add_const c =
  {
    Ir.fname = "f";
    params = [ ("x", 8) ];
    body =
      [
        {
          Ir.name = "r";
          width = 8;
          inst =
            Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (Bitvec.of_int ~width:8 c));
        };
      ];
    ret = Ir.Var "r";
  }

let test_refinement_oracle () =
  (match Oracle.refines ~seed:7 (add_const 1) (add_const 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Oracle.refines ~seed:7 (add_const 1) (add_const 2) with
  | Ok () -> Alcotest.fail "add %x, 1 -> add %x, 2 was accepted"
  | Error _ -> ()

let test_verdict_oracle () =
  Alcotest.(check bool) "valid as expected" true
    (Oracle.verdict_ok ~expect_valid:true "valid");
  Alcotest.(check bool) "invalid as expected" true
    (Oracle.verdict_ok ~expect_valid:false "invalid");
  Alcotest.(check bool) "wrong verdict" false
    (Oracle.verdict_ok ~expect_valid:true "invalid");
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " is a failure") false
        (Oracle.verdict_ok ~expect_valid:true v))
    [ "unknown:timeout"; "crash"; "type-error"; "unsupported" ]

let test_self_times () =
  let ev phase start dur =
    {
      Alive_trace.Trace.phase;
      path = phase;
      start;
      dur;
      domain = 0;
      meta = [];
    }
  in
  let events =
    [
      ev "outer" 0.0 10.0;
      ev "inner" 1.0 4.0;
      ev "leaf" 2.0 1.0;
      ev "inner" 6.0 2.0;
      ev "outer" 20.0 5.0;
    ]
  in
  let phases, roots = Attrib.self_times events in
  let self p =
    match List.find_opt (fun (q, _, _) -> q = p) phases with
    | Some (_, s, _) -> s
    | None -> Alcotest.fail ("no phase " ^ p)
  in
  Alcotest.check close "outer self" 9.0 (self "outer");
  Alcotest.check close "inner self" 5.0 (self "inner");
  Alcotest.check close "leaf self" 1.0 (self "leaf");
  Alcotest.check close "roots" 15.0 roots;
  Alcotest.check close "self times add up to the roots" roots
    (List.fold_left (fun a (_, s, _) -> a +. s) 0.0 phases)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "failure accounting" `Quick test_failure_accounting;
          Alcotest.test_case "chunk-wise best" `Quick test_best_chunks;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "refinement flags a broken rewrite" `Quick
            test_refinement_oracle;
          Alcotest.test_case "verdicts" `Quick test_verdict_oracle;
        ] );
      ("attrib", [ Alcotest.test_case "self times" `Quick test_self_times ]);
    ]
