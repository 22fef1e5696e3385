open Fact_resilience

let standard n =
  let vs = List.init n Vertex.base in
  Complex.of_facets ~n [ Simplex.make vs ]

let facet_of_run tau run =
  Simplex.of_chr_pairs
    (List.map
       (fun (p, view) -> (p, Simplex.restrict tau view))
       (Opart.views run))

let subdivide_simplex_raw tau =
  let runs = Opart.enumerate (Simplex.colors tau) in
  List.map (facet_of_run tau) runs

(* The facets of [Chr τ] are asked for again on every [iterate] over a
   complex containing τ (and the same τ values recur across reps of the
   whole pipeline); memoize them per simplex, bounded (Cache evicts
   LRU-ish past FACT_CACHE_CAP — recomputation is pure, so eviction
   never changes results). *)
module Simplex_cache = Cache.Make (struct
  type t = Simplex.t

  let equal = Simplex.equal
  let hash = Simplex.hash
end)

let sub_cache : Simplex.t list Simplex_cache.t =
  Simplex_cache.create ~name:"chr.subdivide"
    ~equal:(List.equal Simplex.equal) ()

let subdivide_simplex tau =
  Simplex_cache.find_or_add sub_cache tau subdivide_simplex_raw

(* Per-facet ordered-partition enumeration is independent across
   facets, so it fans out over domains (Parallel is a no-op for the
   default domain count of 1). Workers only construct immutable
   simplices; the facet list order — and hence the resulting complex —
   does not depend on the domain count. The ambient cancellation token
   is polled once per facet, on workers too. *)
let subdivide k =
  let gens =
    Parallel.concat_map
      (fun tau ->
        Cancel.poll ~where:"Chr.subdivide";
        subdivide_simplex tau)
      (Complex.facets k)
  in
  Complex.of_facets ~n:(Complex.n k) gens

let rec iterate m k = if m <= 0 then k else iterate (m - 1) (subdivide k)

(* Iterated subdivisions of the standard simplex are requested all
   over the affine pipeline (R_A, R_kOF, R_t-res, full_chr); memoize
   them per (m, n). The cached complexes are shared: treat them as
   immutable. *)
module Int_pair_cache = Cache.Make (struct
  type t = int * int

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let std_cache : Complex.t Int_pair_cache.t =
  Int_pair_cache.create ~name:"chr.standard_iterated" ~equal:Complex.equal ()

let standard_iterated ~m ~n =
  Int_pair_cache.find_or_add std_cache (m, n) (fun (m, n) ->
      let c = iterate m (standard n) in
      (* Pre-force the closure and Euler caches so sharing the complex
         with worker domains later never races on them
         ([simplex_count] streams and would leave the closure cold). *)
      ignore (Complex.all_simplices c);
      ignore (Complex.euler_characteristic c);
      c)

let facet_of_runs tau runs = List.fold_left facet_of_run tau runs

let run_of_facet sigma =
  let pairs =
    List.map
      (fun v ->
        match v with
        | Vertex.Deriv { proc; carrier } ->
          (proc, Simplex.colors (Simplex.make carrier))
        | Vertex.Input _ ->
          invalid_arg "Chr.run_of_facet: base-level vertex")
      (Simplex.vertices sigma)
  in
  match Opart.of_views pairs with
  | Some run -> run
  | None -> invalid_arg "Chr.run_of_facet: not a full facet of Chr"

let carrier = Simplex.carrier

let is_simplex_of_chr sigma =
  let vs = Simplex.vertices sigma in
  if List.exists (function Vertex.Input _ -> true | Vertex.Deriv _ -> false) vs
  then invalid_arg "Chr.is_simplex_of_chr: base-level vertex";
  let entries =
    List.combine (List.map Vertex.proc vs)
      (Array.to_list (Simplex.vertex_carriers sigma))
  in
  (* containment: carriers pairwise ordered by inclusion;
     immediacy: c_i ∈ χ(σ_j) implies σ_i ⊆ σ_j;
     self-inclusion: c_i ∈ χ(σ_i). *)
  List.for_all
    (fun (ci, si) ->
      Pset.mem ci (Simplex.colors si)
      && List.for_all
           (fun (_, sj) -> Simplex.subset si sj || Simplex.subset sj si)
           entries
      && List.for_all
           (fun (_, sj) ->
             (not (Pset.mem ci (Simplex.colors sj))) || Simplex.subset si sj)
           entries)
    entries
