(** First- and second-round views of vertices of [Chr² s] (Section 4).

    For a vertex [v ∈ Chr² s] of color [p = χ(v)]:
    - [View2 v = χ(carrier(v, Chr s))] — the processes [p] saw in the
      second immediate snapshot;
    - [View1 v = χ(carrier(v', s))] where [v'] is the vertex of color
      [p] inside [carrier(v, Chr s)] — the processes [p] saw in the
      first immediate snapshot. *)

open Fact_topology

val view1 : Vertex.t -> Pset.t
(** Raises [Invalid_argument] if the vertex is not at subdivision
    level 2. *)

val view2 : Vertex.t -> Pset.t
(** Raises [Invalid_argument] if the vertex is not at subdivision
    level 2. *)

val views : Vertex.t -> Pset.t * Pset.t
(** [(view1 v, view2 v)] in one memoized lookup (cached per vertex
    intern id). *)

val views_of_simplex : Simplex.t -> (Pset.t * Pset.t) array
(** {!views} of every vertex of a simplex of [Chr² s], in
    {!Simplex.vertices} order, keyed by the intern ids the simplex
    already holds instead of re-interning each vertex. *)

val chr1_carrier : Vertex.t -> Simplex.t
(** [carrier(v, Chr s)] as a simplex of [Chr s]. *)

val pp_views : Format.formatter -> Vertex.t -> unit
(** Prints [p: View1=… View2=…]. *)
