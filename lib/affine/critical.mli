(** Critical simplices of [Chr s] (Definition 7, Figure 5).

    Given an agreement function α, a simplex σ ∈ Chr s is critical if
    (1) all its vertices share the same carrier in [s] and (2) removing
    its colors from that carrier strictly decreases the agreement
    power: [α(χ(carrier(σ,s)) \ χ(σ)) < α(χ(carrier(σ,s)))].

    Critical simplices witness increases of the agreement power with
    participation; the [R_A] construction prioritizes them. *)

open Fact_topology
open Fact_adversary

val is_critical : Agreement.t -> Simplex.t -> bool
(** The simplex must live in [Chr s] (level 1) and be nonempty. *)

val critical_subsets : Agreement.t -> Simplex.t -> Simplex.t list
(** [CS_α(σ)]: the critical faces of σ (not inclusion-closed). *)

val members : Agreement.t -> Simplex.t -> Simplex.t
(** [CSM_α(σ)]: the vertices of σ belonging to some critical face, as a
    simplex (sub-simplex of σ). *)

val view : Agreement.t -> Simplex.t -> Pset.t
(** [CSV_α(σ) = χ(carrier(CSM_α(σ), s))]: the processes observed by
    critical simplices in their View1. *)

val analyze : Agreement.t -> Simplex.t -> Pset.t * Pset.t * int
(** [(χ(CSM_α σ), CSV_α σ, Conc_α σ)] in one pass, memoized per
    (agreement-function {!Agreement.stamp}, simplex). {!members},
    {!view} and {!Concurrency.level} all go through this cache, which
    is safe to hit from multiple domains. *)

val all_critical : Agreement.t -> Complex.t -> Simplex.t list
(** All critical simplices of a sub-complex of [Chr s] (for Figure 5
    and the benches). *)
