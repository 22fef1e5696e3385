open Fact_topology
open Fact_adversary

type variant = Def9_intersection | Lemma6_union

let default_variant = Lemma6_union

(* The condition P(θ, σ) of Definition 9. The per-facet carrier ρ and
   per-face carrier τ both live in Chr s; CSM/CSV/Conc are computed
   there (and memoized per (α, simplex) in [Critical.analyze]). *)
let face_ok variant alpha ~rho theta =
  if not (Contention.is_contention_simplex theta) then true
  else
    let tau = Simplex.carrier theta in
    let chi_theta = Simplex.colors theta in
    let csm_rho, _, _ = Critical.analyze alpha rho in
    let csv_tau = Critical.view alpha tau in
    let exempt =
      match variant with
      | Def9_intersection ->
        not (Pset.is_empty (Pset.inter chi_theta (Pset.inter csm_rho csv_tau)))
      | Lemma6_union ->
        not (Pset.is_empty (Pset.inter chi_theta (Pset.union csm_rho csv_tau)))
    in
    exempt || Simplex.dim theta < Concurrency.level alpha tau

let offending_faces ?(variant = default_variant) alpha sigma =
  let rho = Simplex.carrier sigma in
  List.filter
    (fun theta -> not (face_ok variant alpha ~rho theta))
    (Simplex.faces sigma)

(* Checking all 2^k faces of a facet through [face_ok] would build
   every face as a simplex and re-derive its views and carrier. The
   facet test below enumerates faces as bitmasks over the facet's
   vertices instead:

   - views and carriers are fetched once per vertex, memoized and
     keyed by the intern ids the facet already holds
     ([Views.views_of_simplex], [Simplex.vertex_carriers]);
   - the contention predicate is pairwise, so a face is a contention
     simplex iff its mask is a clique of the precomputed k×k
     "contending" adjacency masks — integer tests per face;
   - only for contention faces (the rare case) are the carrier τ and
     its memoized CSM/CSV/Conc analysis looked up, and even then τ is
     a union of memoized per-vertex carriers — no face simplex is ever
     constructed. *)
let facet_ok ?(variant = default_variant) alpha sigma =
  let vs = Array.of_list (Simplex.vertices sigma) in
  let k = Array.length vs in
  let rho = Simplex.carrier sigma in
  let csm_rho, _, _ = Critical.analyze alpha rho in
  let views = Views.views_of_simplex sigma in
  let vcar = Simplex.vertex_carriers sigma in
  let col = Array.map (fun v -> Pset.singleton (Vertex.proc v)) vs in
  (* contend.(i): bitmask of the j whose vertex contends with vertex i *)
  let contend = Array.make k 0 in
  for i = 0 to k - 1 do
    let v1i, v2i = views.(i) in
    for j = i + 1 to k - 1 do
      let v1j, v2j = views.(j) in
      let c =
        (Pset.proper_subset v1i v1j && Pset.proper_subset v2j v2i)
        || (Pset.proper_subset v1j v1i && Pset.proper_subset v2i v2j)
      in
      if c then begin
        contend.(i) <- contend.(i) lor (1 lsl j);
        contend.(j) <- contend.(j) lor (1 lsl i)
      end
    done
  done;
  let bit_index i =
    (* [i] has a single bit set *)
    let rec f i acc = if i <= 1 then acc else f (i lsr 1) (acc + 1) in
    f i 0
  in
  let is_clique m =
    let rec go rest =
      rest = 0
      ||
      let i = rest land -rest in
      m land lnot i land lnot contend.(bit_index i) = 0
      && go (rest land lnot i)
    in
    go m
  in
  let rec fold_bits m f acc =
    if m = 0 then acc
    else
      let i = m land -m in
      fold_bits (m land lnot i) f (f (bit_index i) acc)
  in
  let ok = ref true in
  let m = ref 1 in
  let full = (1 lsl k) - 1 in
  while !ok && !m <= full do
    let mask = !m in
    if is_clique mask then begin
      (* θ is a contention simplex: apply P(θ, σ) *)
      let chi_theta =
        fold_bits mask (fun i acc -> Pset.union acc col.(i)) Pset.empty
      in
      let tau =
        fold_bits mask (fun i acc -> Simplex.union acc vcar.(i)) Simplex.empty
      in
      let _, csv_tau, conc_tau = Critical.analyze alpha tau in
      let exempt =
        match variant with
        | Def9_intersection ->
          not
            (Pset.is_empty (Pset.inter chi_theta (Pset.inter csm_rho csv_tau)))
        | Lemma6_union ->
          not
            (Pset.is_empty (Pset.inter chi_theta (Pset.union csm_rho csv_tau)))
      in
      let dim_theta = Pset.cardinal chi_theta - 1 in
      if not (exempt || dim_theta < conc_tau) then ok := false
    end;
    incr m
  done;
  !ok

(* The verdicts of all the facets of [Chr² s] are memoized together,
   one entry per (agreement stamp, variant, n): the value is the kept
   set as a bitset over the positions of [Complex.facets chr2] (704
   bytes at n=4). Facet order is canonical, so the positions stay valid
   even if [Chr² s] itself is evicted and rebuilt. Bounded by
   FACT_CACHE_CAP; eviction only costs recomputation. *)
module Kept_cache = Fact_resilience.Cache.Make (struct
  type t = int * variant * int

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let kept_cache : Bytes.t Kept_cache.t =
  Kept_cache.create ~name:"ra.facet_ok" ~equal:Bytes.equal ()

let bit_mem bits i = Bytes.get_uint8 bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let bit_add bits i =
  Bytes.set_uint8 bits (i lsr 3) (Bytes.get_uint8 bits (i lsr 3) lor (1 lsl (i land 7)))

(* On a miss the facets are filtered independently, so the scan fans
   out over domains; workers only hit mutex-protected memo tables and
   build immutable values. Either way the complex is rebuilt from the
   bitset by one filter over [Chr² s], with no hashing. The ambient
   cancellation token is polled once per facet in the scan and in the
   rebuild, so a warm R_A still cancels within one facet. *)
let complex ?(variant = default_variant) alpha ~n =
  let chr2 = Chr.standard_iterated ~m:2 ~n in
  let poll () = Fact_resilience.Cancel.poll ~where:"Ra.complex" in
  let kept =
    Kept_cache.find_or_add kept_cache (Agreement.stamp alpha, variant, n)
      (fun _ ->
        let bits = Bytes.make ((Complex.facet_count chr2 + 7) / 8) '\000' in
        Parallel.map
          (fun f ->
            poll ();
            facet_ok ~variant alpha f)
          (Complex.facets chr2)
        |> List.iteri (fun i ok -> if ok then bit_add bits i);
        bits)
  in
  Complex.filteri_facets
    (fun i ->
      poll ();
      bit_mem kept i)
    chr2

let task ?(variant = default_variant) alpha ~n =
  Affine_task.make ~ell:2 (complex ~variant alpha ~n)

let of_adversary ?(variant = default_variant) a =
  task ~variant (Agreement.of_adversary a) ~n:(Adversary.n a)
