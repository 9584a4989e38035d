open Ast

type position = { side : [ `Src | `Tgt ]; name : string; attr : attr }

let pp_position ppf p =
  Format.fprintf ppf "%s:%s:%s"
    (match p.side with `Src -> "src" | `Tgt -> "tgt")
    p.name (attr_name p.attr)

type outcome = {
  positions : position list;
  original : position list;
  weakest_source : position list;
  strongest_target : position list;
  best : position list;
  source_weakened : bool;
  target_strengthened : bool;
}

let attrs_for_op = function
  | Add | Sub | Mul | Shl -> [ Nsw; Nuw ]
  | SDiv | UDiv | AShr | LShr -> [ Exact ]
  | URem | SRem | And | Or | Xor -> []

let positions_of_side side stmts =
  List.concat_map
    (function
      | Def (name, _, Binop (op, _, _, _)) ->
          List.map (fun attr -> { side; name; attr }) (attrs_for_op op)
      | Def _ | Store _ | Unreachable -> [])
    stmts

let candidate_positions t =
  positions_of_side `Src t.src @ positions_of_side `Tgt t.tgt

let present_positions t =
  let of_side side stmts =
    List.concat_map
      (function
        | Def (name, _, Binop (_, attrs, _, _)) ->
            List.map (fun attr -> { side; name; attr }) attrs
        | Def _ | Store _ | Unreachable -> [])
      stmts
  in
  of_side `Src t.src @ of_side `Tgt t.tgt

let mem_position ps p =
  List.exists
    (fun q -> q.side = p.side && String.equal q.name p.name && q.attr = p.attr)
    ps

let apply t positions =
  let rewrite side stmts =
    List.map
      (function
        | Def (name, ty, Binop (op, _, a, b)) ->
            let attrs =
              List.filter
                (fun attr -> mem_position positions { side; name; attr })
                (attrs_for_op op)
            in
            Def (name, ty, Binop (op, attrs, a, b))
        | s -> s)
      stmts
  in
  { t with src = rewrite `Src t.src; tgt = rewrite `Tgt t.tgt }

(* All subsets of [items], smallest first; within a size, subsets containing
   more of [prefer] come first (so we favour the original attributes). *)
let subsets_by_size ~prefer items =
  let score s = List.length (List.filter (fun p -> mem_position prefer p) s) in
  let rec all = function
    | [] -> [ [] ]
    | x :: rest ->
        let tails = all rest in
        tails @ List.map (fun s -> x :: s) tails
  in
  List.sort
    (fun a b ->
      let c = Int.compare (List.length a) (List.length b) in
      if c <> 0 then c else Int.compare (score b) (score a))
    (all items)

let infer ?widths t =
  let positions = candidate_positions t in
  let original = present_positions t in
  let src_positions = List.filter (fun p -> p.side = `Src) positions in
  let tgt_positions = List.filter (fun p -> p.side = `Tgt) positions in
  let valid ps =
    Refine.is_valid_verdict (Refine.check ?widths (apply t ps))
  in
  let original_src = List.filter (fun p -> p.side = `Src) original in
  let original_tgt = List.filter (fun p -> p.side = `Tgt) original in
  (* Feasibility probe: every source attribute with the original target
     attributes. If even that fails, attributes alone cannot fix it. *)
  if not (valid (src_positions @ original_tgt)) then None
  else begin
    (* Weakest precondition: the smallest source attribute set that still
       supports the original target attributes. Subset order prefers the
       original attributes on ties. *)
    let weakest_source =
      let rec first = function
        | [] -> src_positions (* unreachable: full set verified above *)
        | s :: rest -> if valid (s @ original_tgt) then s else first rest
      in
      first (subsets_by_size ~prefer:original src_positions)
    in
    (* Strongest postcondition: greedily extend the target attribute set
       under the original source attributes; validity is downward closed in
       target attributes, so the greedy result is maximal. *)
    let strongest_target =
      List.fold_left
        (fun acc p ->
          if valid (original_src @ acc @ [ p ]) then acc @ [ p ] else acc)
        [] tgt_positions
    in
    let best = original_src @ strongest_target in
    if not (valid best) then None
    else
      Some
        {
          positions;
          original;
          weakest_source;
          strongest_target;
          best;
          source_weakened =
            List.exists
              (fun p -> not (mem_position weakest_source p))
              original_src;
          target_strengthened =
            List.exists
              (fun p -> not (mem_position original_tgt p))
              strongest_target;
        }
  end
