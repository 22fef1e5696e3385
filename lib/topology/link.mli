(** Links and link-connectivity of complexes.

    The link of a simplex σ in a complex [K] is
    [Lk(σ, K) = {τ ∈ K : τ ∩ σ = ∅, τ ∪ σ ∈ K}]. A complex is
    link-connected if the link of every vertex is (graph-)connected.

    Section 8 of the paper observes that link-connectivity is what lets
    Saraph et al. [30] use continuous maps for [R_{t-res}], and that
    "only very special adversaries" have link-connected affine tasks —
    e.g. the task of 1-obstruction-freedom (Figure 7a) is {e not}
    link-connected. Both facts are checked computationally by the test
    suite and the [link] bench section. *)

val link : Simplex.t -> Complex.t -> Complex.t
(** [Lk(σ, K)]. Empty if σ is not a simplex of [K]. *)

val is_connected : Complex.t -> bool
(** Is the 1-skeleton connected (single component over the complex's
    vertices)? The empty complex counts as connected. *)

val is_link_connected : Complex.t -> bool
(** Are the links of all vertices connected? Same as
    [disconnected_vertices k = []]. *)

val disconnected_vertices : Complex.t -> Vertex.t list
(** The vertices whose links are disconnected (witnesses for
    non-link-connectivity), in {!Complex.vertices} order. Equal to
    filtering {!Complex.vertices} by [not (is_connected (link {v} k))],
    but computed in one pass over the facets without building any link:
    O(F·k²) for F facets of k vertices, plus a sort of the witnesses. *)
