(* Output oracles: what makes a benchmark operation correct.

   A verdict is correct when it equals the corpus entry's expected tag;
   unknown, crash, type-error and unsupported are all wrong. An optimized
   function is correct when it refines its input under the concrete
   interpreter on seeded random arguments. The interpreter is independent
   of the optimizer, so a wrong rewrite shows up here. *)

let verdict_ok ~expect_valid verdict =
  match verdict with
  | "valid" -> expect_valid
  | "invalid" -> not expect_valid
  | _ -> false

let random_args st (f : Ir.func) =
  List.map
    (fun (_, w) -> Bitvec.make ~width:w (Random.State.int64 st Int64.max_int))
    f.Ir.params

(* [refines ~seed src tgt]: [Ok ()] when [tgt] refines [src] on [trials]
   argument tuples drawn from [seed], both run with undef pinned to zero. *)
let refines ?(trials = 8) ~seed (src : Ir.func) (tgt : Ir.func) =
  let st = Random.State.make [| seed; 0x0bac1e |] in
  let rec go i =
    if i = trials then Ok ()
    else
      let args = random_args st src in
      match
        ( Interp.run ~policy:Interp.Zero src args,
          Interp.run ~policy:Interp.Zero tgt args )
      with
      | Ok s, Ok t when Interp.refines s t -> go (i + 1)
      | Ok _, Ok _ ->
          Error (Printf.sprintf "%s: output does not refine input" src.Ir.fname)
      | Error e, _ | _, Error e ->
          Error (Printf.sprintf "%s: interpreter error: %s" src.Ir.fname e)
  in
  go 0
