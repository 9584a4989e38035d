(* Child-process mode for the store write-lock test: [lockf] locks are
   per-process, so contention can only be observed from a second process,
   and [Unix.fork] is unavailable once domains exist — the test re-execs
   this binary with the probe variable set instead. *)
let () =
  match Sys.getenv_opt "ALIVE_STORE_LOCK_PROBE" with
  | None -> ()
  | Some dir ->
      exit
        (match Alive_service.Store.open_store dir with
        | Error e when Astring.String.is_infix ~affix:"lock" e -> 0
        | Error _ -> 2
        | Ok _ -> 1)

let () =
  Alcotest.run "alive"
    [
      Test_bitvec.suite;
      Test_sat.suite;
      Test_smt.suite;
      Test_alive.suite;
      Test_ir.suite;
      Test_absint.suite;
      Test_opt.suite;
      Test_compiled.suite;
      Test_suite.suite;
      Test_engine.suite;
      Test_differential.suite;
      Test_aig.suite;
      Test_lint.suite;
      Test_constlang.suite;
      Test_semantics.suite;
      Test_infer.suite;
      Test_trace.suite;
      Test_service.suite;
    ]
