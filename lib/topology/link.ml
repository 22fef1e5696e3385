let link sigma k =
  let gens =
    List.filter_map
      (fun f ->
        if Simplex.subset sigma f then
          let rest = Simplex.diff f sigma in
          if Simplex.is_empty rest then None else Some rest
        else None)
      (Complex.facets k)
  in
  Complex.of_facets ~n:(Complex.n k) gens

(* Union-find over the vertex list of the complex, keyed by intern
   id. *)
let is_connected k =
  match Complex.vertices k with
  | [] -> true
  | vertices ->
    let index = Hashtbl.create (List.length vertices) in
    List.iteri (fun i v -> Hashtbl.replace index (Vertex.id v) i) vertices;
    let parent = Array.init (List.length vertices) Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    List.iter
      (fun f ->
        match Array.to_list (Simplex.interned_key f) with
        | [] -> ()
        | v :: rest ->
          let i = Hashtbl.find index v in
          List.iter (fun w -> union i (Hashtbl.find index w)) rest)
      (Complex.facets k);
    let root = find 0 in
    List.for_all (fun i -> find i = root)
      (List.init (List.length vertices) Fun.id)

(* Every link in one pass over the facets. A facet f puts f∖{v} into
   the link of each of its vertices v, and a generator that is not
   maximal in Lk(v) is a face of one that is, so it adds no
   connectivity: Lk(v) is connected iff the sets f∖{v}, over the
   facets f ∋ v, chain into one component. Vertices are renumbered
   densely from their intern ids; each vertex's facets are listed by a
   counting sort, and one union-find array serves every vertex — a
   slot belongs to the current vertex only if [owner] says so, so
   nothing is reset between vertices. Cost O(F·k²) for F facets of k
   vertices. *)
let disconnected_vertices k =
  let facets = Array.of_list (Complex.facets k) in
  let local = Hashtbl.create 1024 in
  let first = ref [] in
  let rows =
    Array.mapi
      (fun fi f ->
        Array.mapi
          (fun pos vid ->
            match Hashtbl.find_opt local vid with
            | Some i -> i
            | None ->
              let i = Hashtbl.length local in
              Hashtbl.add local vid i;
              first := (fi, pos) :: !first;
              i)
          (Simplex.interned_key f))
      facets
  in
  let nv = Hashtbl.length local in
  (* [start.(v)] .. [start.(v + 1) - 1]: the facets containing v *)
  let start = Array.make (nv + 1) 0 in
  Array.iter (Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1)) rows;
  for v = 0 to nv - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 nv in
  let incident = Array.make start.(nv) 0 in
  Array.iteri
    (fun fi row ->
      Array.iter
        (fun v ->
          incident.(fill.(v)) <- fi;
          fill.(v) <- fill.(v) + 1)
        row)
    rows;
  let parent = Array.make nv 0 and owner = Array.make nv (-1) in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      parent.(i) <- r;
      r
    end
  in
  let connected v =
    (* components of Lk(v) seen so far *)
    let comps = ref 0 in
    let touch u =
      if owner.(u) <> v then begin
        owner.(u) <- v;
        parent.(u) <- u;
        incr comps
      end
    in
    for e = start.(v) to start.(v + 1) - 1 do
      let row = rows.(incident.(e)) in
      let anchor = ref (-1) in
      Array.iter
        (fun u ->
          if u <> v then begin
            touch u;
            if !anchor < 0 then anchor := u
            else
              let ra = find !anchor and ru = find u in
              if ra <> ru then begin
                parent.(ru) <- ra;
                decr comps
              end
          end)
        row
    done;
    !comps <= 1
  in
  (* Local ids were handed out in first-seen order; the result keeps
     the order of [Complex.vertices], which is [Simplex.compare] on the
     vertex singletons. *)
  List.rev !first
  |> List.filteri (fun v _ -> not (connected v))
  |> List.map (fun (fi, pos) -> Simplex.select_sorted_mask facets.(fi) (1 lsl pos))
  |> List.sort Simplex.compare
  |> List.concat_map Simplex.vertices

let is_link_connected k = disconnected_vertices k = []
