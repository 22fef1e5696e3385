open Fact_topology
open Fact_adversary

let check_level1 fname sigma =
  List.iter
    (fun v ->
      if Vertex.level v <> 1 then
        invalid_arg (fname ^ ": simplex not in Chr s"))
    (Simplex.vertices sigma)

let is_critical alpha sigma =
  if Simplex.is_empty sigma then false
  else begin
    check_level1 "Critical.is_critical" sigma;
    let car = Simplex.base_carrier sigma in
    let shared =
      List.for_all
        (fun v -> Pset.equal (Vertex.base_carrier v) car)
        (Simplex.vertices sigma)
    in
    shared
    && Agreement.eval alpha (Pset.diff car (Simplex.colors sigma))
       < Agreement.eval alpha car
  end

let critical_subsets alpha sigma =
  List.filter (is_critical alpha) (Simplex.faces sigma)

(* CSM/CSV/Conc in one pass, without enumerating faces of σ as
   simplices. A face is critical iff all its vertices share one base
   carrier and dropping its colors from that carrier strictly lowers
   α. So group the vertices of σ by base carrier; for a group with
   carrier [car] and color set [cs], the critical faces inside it are
   exactly the nonempty [x ⊆ cs] with [α(car \ x) < α(car)] — and
   since base_carrier(face) = car for those faces,

   - CSM colors = union of all such x (per group),
   - CSV       = union of [car] over groups owning a critical face,
   - Conc      = max of [α(car)] over those same groups.

   Only Pset words and table lookups are touched, 2^|group| of them
   per group instead of 2^|σ| simplex constructions. *)
let analyze_uncached alpha sigma =
  check_level1 "Critical.is_critical" sigma;
  let groups = ref [] in
  List.iter
    (fun v ->
      let car = Vertex.base_carrier v in
      let c = Vertex.proc v in
      match List.assoc_opt car !groups with
      | Some cs -> groups := (car, Pset.add c cs) :: List.remove_assoc car !groups
      | None -> groups := (car, Pset.singleton c) :: !groups)
    (Simplex.vertices sigma);
  let csm_colors = ref Pset.empty in
  let csv = ref Pset.empty in
  let conc = ref 0 in
  List.iter
    (fun (car, cs) ->
      let a_car = Agreement.eval alpha car in
      let any = ref false in
      List.iter
        (fun x ->
          if Agreement.eval alpha (Pset.diff car x) < a_car then begin
            any := true;
            csm_colors := Pset.union !csm_colors x
          end)
        (Pset.nonempty_subsets cs);
      if !any then begin
        csv := Pset.union !csv car;
        conc := max !conc a_car
      end)
    !groups;
  (!csm_colors, !csv, !conc)

(* Memoized per (agreement-function stamp, simplex), in one bounded
   cache safe to hit from worker domains; computation happens outside
   the cache lock and a racing duplicate insert is dropped. Polls the
   ambient cancellation token: [analyze] is the inner loop of the R_A
   facet filter, so cancellation latency stays at one analysis. The
   value holds CSM as a color set, not as a simplex: one entry is a
   few words, and an n=4 R_A adds thousands of entries. *)
module Stamped_cache = Fact_resilience.Cache.Make (struct
  type t = int * Simplex.t

  let equal (s1, x1) (s2, x2) = s1 = s2 && Simplex.equal x1 x2
  let hash (s, x) = (s * 0x9e3779b1) lxor Simplex.hash x
end)

let cache : (Pset.t * Pset.t * int) Stamped_cache.t =
  Stamped_cache.create ~name:"critical.analyze" ~equal:( = ) ()

let analyze alpha sigma =
  Fact_resilience.Cancel.poll ~where:"Critical.analyze";
  Stamped_cache.find_or_add cache
    (Agreement.stamp alpha, sigma)
    (fun _ -> analyze_uncached alpha sigma)

let members alpha sigma =
  let m, _, _ = analyze alpha sigma in
  Simplex.restrict sigma m

let view alpha sigma =
  let _, v, _ = analyze alpha sigma in
  v

let all_critical alpha k =
  List.filter (is_critical alpha) (Complex.all_simplices k)
