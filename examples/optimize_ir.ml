(* The §6.4 pipeline in miniature: take an IR function, optimize it with the
   verified rule corpus (the semantic equivalent of linking the generated
   C++ into LLVM), and confirm by random testing that the optimized code
   refines the original.

   Run with: dune exec examples/optimize_ir.exe *)

let bv w v = Bitvec.of_int ~width:w v

(* A function with several optimizable patterns hiding in it:
     %neg  = xor %x, -1        ; ~x
     %sum  = add %neg, 10      ; (x ^ -1) + 10  -> 9 - x   (the paper intro)
     %dbl  = add %sum, %sum    ;                -> shl 1
     %m    = mul %dbl, 8       ;                -> shl 3
     %z    = sub %m, %m        ;                -> 0
     %r    = or %m, %z         ;                -> %m
*)
let example =
  {
    Ir.fname = "example";
    params = [ ("x", 8) ];
    body =
      [
        { Ir.name = "neg"; width = 8;
          inst = Ir.Binop (Ir.Xor, [], Ir.Var "x", Ir.Const (Bitvec.all_ones 8)) };
        { Ir.name = "sum"; width = 8;
          inst = Ir.Binop (Ir.Add, [], Ir.Var "neg", Ir.Const (bv 8 10)) };
        { Ir.name = "dbl"; width = 8;
          inst = Ir.Binop (Ir.Add, [], Ir.Var "sum", Ir.Var "sum") };
        { Ir.name = "m"; width = 8;
          inst = Ir.Binop (Ir.Mul, [], Ir.Var "dbl", Ir.Const (bv 8 8)) };
        { Ir.name = "z"; width = 8;
          inst = Ir.Binop (Ir.Sub, [], Ir.Var "m", Ir.Var "m") };
        { Ir.name = "r"; width = 8;
          inst = Ir.Binop (Ir.Or, [], Ir.Var "m", Ir.Var "z") };
      ];
    ret = Ir.Var "r";
  }

let () =
  let rules = Alive_opt.Matcher.corpus_rules () in
  Printf.printf "%d verified rules loaded from the corpus\n\n" (List.length rules);
  Format.printf "Before (cost %d):@.%a@.@." (Cost.func_cost example) Ir.pp_func
    example;
  let optimized, stats = Alive_opt.Pass.run ~rules example in
  Format.printf "After (cost %d):@.%a@.@." (Cost.func_cost optimized) Ir.pp_func
    optimized;
  print_endline "Rules fired:";
  List.iter (fun (n, c) -> Printf.printf "  %-45s x%d\n" n c) stats;
  (* Differential check: the optimized function must refine the original on
     every input (exhaustive here: one i8 parameter). *)
  let disagreements = ref 0 in
  for x = 0 to 255 do
    let args = [ bv 8 x ] in
    match (Interp.run example args, Interp.run optimized args) with
    | Ok src, Ok tgt -> if not (Interp.refines src tgt) then incr disagreements
    | _ -> incr disagreements
  done;
  Printf.printf "\nExhaustive i8 refinement check: %d/256 disagreements\n"
    !disagreements
