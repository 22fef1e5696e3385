(** The affine task [R_A] of a fair adversary (Definition 9, Figure 7).

    A facet σ of [Chr² s] belongs to [R_A] iff every face θ ⊆ σ
    satisfies (with τ = carrier(θ, Chr s) and ρ = carrier(σ, Chr s)):

    {v θ ∈ Cont2 ∧ exempt(θ, ρ, τ) = ∅ ⟹ dim θ < Conc_α(τ) v}

    The paper states the exemption condition in two non-equivalent
    ways: Definition 9 uses the {e intersection}
    [χ(θ) ∩ χ(CSM_α(ρ)) ∩ χ(CSV_α(τ))], while the proof of Lemma 6
    negates the {e union} form [χ(θ) ∩ (χ(CSM_α(ρ)) ∪ χ(CSV_α(τ)))].
    Both are implemented; EXPERIMENTS.md records which one coincides
    with the independent Definition 6 on k-obstruction-free
    adversaries (the union variant does, and it is the default). *)

open Fact_topology
open Fact_adversary

type variant =
  | Def9_intersection  (** literal reading of Definition 9 *)
  | Lemma6_union       (** reading used by the proof of Lemma 6 *)

val default_variant : variant

val facet_ok : ?variant:variant -> Agreement.t -> Simplex.t -> bool
(** Does this facet of [Chr² s] satisfy the [R_A] condition? Evaluated
    directly, so it also serves facets of [Chr² s] for [n] too large to
    enumerate; not memoized. *)

val complex : ?variant:variant -> Agreement.t -> n:int -> Complex.t
(** The facets of [Chr² s] that pass {!facet_ok}. The verdicts are
    memoized as one [ra.facet_ok] cache entry per agreement function,
    variant and [n], so a repeated call is one filter over [Chr² s]. *)

val task : ?variant:variant -> Agreement.t -> n:int -> Affine_task.t

val of_adversary : ?variant:variant -> Adversary.t -> Affine_task.t
(** [R_A] for the adversary's agreement function. The adversary should
    be fair for the characterization theorems to apply; this function
    does not check fairness. *)

val offending_faces :
  ?variant:variant -> Agreement.t -> Simplex.t -> Simplex.t list
(** The faces θ of a facet that violate the condition (empty iff
    {!facet_ok}). For diagnostics and tests. *)
