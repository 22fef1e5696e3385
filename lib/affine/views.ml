open Fact_topology

let level2 fname v =
  if Vertex.level v <> 2 then
    invalid_arg (Printf.sprintf "Views.%s: vertex not at level 2" fname)

let chr1_carrier v =
  level2 "chr1_carrier" v;
  Simplex.vertex_carrier v

(* View1/View2 are asked for every vertex of every face of every facet
   (the contention predicate is pairwise); memoize them per vertex
   intern id, bounded by FACT_CACHE_CAP. The carrier simplex itself is
   already shared through [Simplex.vertex_carrier]. *)
module Int_cache = Fact_resilience.Cache.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let compute v =
  let car = Simplex.vertex_carrier v in
  let view2 = Simplex.colors car in
  let view1 =
    match Simplex.find_color (Vertex.proc v) car with
    | Some v' -> Vertex.base_carrier v'
    | None -> invalid_arg "Views.view1: carrier misses own color"
  in
  (view1, view2)

let cache : (Pset.t * Pset.t) Int_cache.t =
  Int_cache.create ~name:"views.views" ~equal:( = ) ()

let views v =
  level2 "views" v;
  Int_cache.find_or_add cache (Vertex.id v) (fun _ -> compute v)

let views_of_simplex sigma =
  let ids = Simplex.vertex_ids sigma in
  Array.of_list (Simplex.vertices sigma)
  |> Array.mapi (fun j v ->
         level2 "views" v;
         Int_cache.find_or_add cache ids.(j) (fun _ -> compute v))

let view1 v =
  level2 "view1" v;
  fst (views v)

let view2 v =
  level2 "view2" v;
  snd (views v)

let pp_views ppf v =
  Format.fprintf ppf "p%d: View1=%a View2=%a" (Vertex.proc v) Pset.pp
    (view1 v) Pset.pp (view2 v)
