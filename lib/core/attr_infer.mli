(** Attribute inference (§3.4, Fig. 6): find the weakest precondition (fewest
    [nsw]/[nuw]/[exact] attributes required on source instructions) and the
    strongest postcondition (most attributes safely placeable on target
    instructions) for which the transformation remains correct.

    The paper enumerates all models of a quantified SMT formula whose free
    boolean variables guard each attribute's poison-free constraint, pruning
    with the partial order "removing a source attribute or adding a target
    attribute only shrinks the feasible set". With at most a handful of
    attribute positions per transformation, this module enumerates candidate
    assignments explicitly along the same partial order, checking each with
    the refinement checker — the result (the set of optimal assignments) is
    identical; see DESIGN.md. *)

(** An attribute position: which side, which instruction, which attribute. *)
type position = {
  side : [ `Src | `Tgt ];
  name : string;  (** instruction (definition) name *)
  attr : Ast.attr;
}

val pp_position : Format.formatter -> position -> unit

type outcome = {
  positions : position list;  (** all positions considered *)
  original : position list;  (** attributes present in the input *)
  weakest_source : position list;
      (** the smallest source attribute set that still verifies with the
          original target attributes (the weakest precondition of §3.4) *)
  strongest_target : position list;
      (** the largest target attribute set that verifies with the original
          source attributes (the strongest postcondition of §3.4) *)
  best : position list;
      (** a valid combined assignment: original source attributes plus the
          strongest target set *)
  source_weakened : bool;  (** an original source attribute is unnecessary *)
  target_strengthened : bool;  (** a new target attribute can be added *)
}

val candidate_positions : Ast.transform -> position list
(** Every (side, instruction, attribute) slot that could legally carry an
    attribute, whether or not it currently does. *)

val apply : Ast.transform -> position list -> Ast.transform
(** The transformation with exactly the given attribute assignment (all
    candidate positions not listed are cleared). *)

val infer : ?widths:int list -> Ast.transform -> outcome option
(** [None] when the transformation is not valid even with the strongest
    source attributes and no target attributes (i.e. unfixable by attributes
    alone), or when it is unsupported. *)
