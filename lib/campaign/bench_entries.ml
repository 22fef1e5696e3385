module Chr = Fact_topology.Chr
module Complex = Fact_topology.Complex
module Pset = Fact_topology.Pset
module Adversary = Fact_adversary.Adversary
module Agreement = Fact_adversary.Agreement
module Ra = Fact_affine.Ra
module Harness = Fact_check.Harness
module Explore = Fact_check.Explore
module Cache = Fact_resilience.Cache
module Fact_error = Fact_resilience.Fact_error
module Query = Fact_serve.Query
module Store = Fact_serve.Store
module Scheduler = Fact_serve.Scheduler
module Listener = Fact_serve.Listener
module Client = Fact_serve.Client

type result = {
  name : string;
  n : int;
  wall_ms : float;
  p99_ms : float option;
  facets : int;
  minor_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
  hits : int;
  misses : int;
  evictions : int;
}

(* one warmup run (populating the memo tables: steady state is what
   the pipeline pays in practice), then [reps] timed runs. The GC
   deltas come from one [Gc.quick_stat] sandwich around the whole
   timed loop — words and collections are reported per rep, so they
   are comparable across entries with different [reps]. With
   [~percentiles:true] each rep is also timed individually for a
   nearest-rank p99 (latency entries: the tail is the figure that
   matters, the mean hides it). *)
let measure ?(percentiles = false) ~reps f =
  ignore (Sys.opaque_identity (f ()));
  (* flush the previous entry's garbage: without this an entry pays
     major-GC slices for its predecessor's allocation, and its wall
     time depends on where it sits in the sweep *)
  Gc.full_major ();
  let samples = if percentiles then Array.make reps 0. else [||] in
  (* [Gc.counters] reads the live allocation pointers; [quick_stat]'s
     word fields only refresh at collection points, so a loop that
     triggers no minor GC (the arena paths) would read as zero *)
  let mw0, _, jw0 = Gc.counters () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to reps - 1 do
    if percentiles then begin
      let s0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      samples.(i) <- (Unix.gettimeofday () -. s0) *. 1000.
    end
    else ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let mw1, _, jw1 = Gc.counters () in
  let fr = float_of_int reps in
  let p99 =
    if not percentiles then None
    else begin
      Array.sort compare samples;
      let rank = int_of_float (ceil (0.99 *. fr)) in
      Some samples.(max 0 (min (reps - 1) (rank - 1)))
    end
  in
  ( (t1 -. t0) *. 1000. /. fr,
    p99,
    (mw1 -. mw0) /. fr,
    (jw1 -. jw0) /. fr,
    float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) /. fr,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. fr )

let cache_totals () =
  List.fold_left
    (fun (h, m, e) (_, s) ->
      (h + s.Cache.hits, m + s.Cache.misses, e + s.Cache.evictions))
    (0, 0, 0) (Cache.all_stats ())

let entry ?percentiles ~name ~n ~reps ~facets f =
  let h0, m0, e0 = cache_totals () in
  let wall_ms, p99_ms, minor_words, major_words, minor_collections,
      major_collections =
    measure ?percentiles ~reps f
  in
  let h1, m1, e1 = cache_totals () in
  {
    name; n; wall_ms; p99_ms;
    facets = facets ();
    minor_words; major_words; minor_collections; major_collections;
    hits = h1 - h0;
    misses = m1 - m0;
    evictions = e1 - e0;
  }

(* ----------------------------- entries ----------------------------- *)

let chr2_of nn = Chr.iterate 2 (Chr.standard nn)
let alpha_1res () = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1)
let alpha_5b () = Agreement.of_adversary Adversary.fig5b

let closure_host nn =
  (* a fresh complex per run, so [closure_set] cannot hit the cache *)
  Complex.of_facets ~n:nn (Complex.facets (Chr.standard_iterated ~m:2 ~n:nn))

let chr_entries () =
  [
    entry ~name:"chr_iterate2" ~n:3 ~reps:20 ~facets:(fun () -> 169)
      (fun () -> chr2_of 3);
    entry ~name:"chr_iterate2" ~n:4 ~reps:5 ~facets:(fun () -> 5625)
      (fun () -> chr2_of 4);
  ]

let ra_entries () =
  let a1 = alpha_1res () and a5b = alpha_5b () in
  [
    entry ~name:"ra_1res" ~n:3 ~reps:50
      ~facets:(fun () -> Complex.facet_count (Ra.complex a1 ~n:3))
      (fun () -> Ra.complex a1 ~n:3);
    entry ~name:"ra_fig5b" ~n:3 ~reps:50
      ~facets:(fun () -> Complex.facet_count (Ra.complex a5b ~n:3))
      (fun () -> Ra.complex a5b ~n:3);
  ]

(* materialized closure (Set of interned simplices) vs the streaming
   kernel: same count, no intermediate complex *)
let closure_entries () =
  [
    entry ~name:"closure_chr2" ~n:4 ~reps:5
      ~facets:(fun () -> List.length (Complex.all_simplices (closure_host 4)))
      (fun () -> List.length (Complex.all_simplices (closure_host 4)));
    entry ~name:"closure_chr2_stream" ~n:4 ~reps:5
      ~facets:(fun () -> Complex.simplex_count (closure_host 4))
      (fun () -> Complex.simplex_count (closure_host 4));
  ]

let explore_is ?domains () =
  let stats, _ = Harness.explore_immediate_snapshot ?domains ~n:3 () in
  stats.Explore.runs

let explore_alg1 ?domains () =
  let wf2 = Agreement.of_adversary (Adversary.wait_free 2) in
  (Harness.explore_algorithm1 ?domains ~alpha:wf2 ~participants:(Pset.full 2)
     ())
    .Explore.runs

let explore_entries () =
  [
    entry ~name:"explore_is" ~n:3 ~reps:3 ~facets:(explore_is ?domains:None)
      (explore_is ?domains:None);
    entry ~name:"explore_alg1" ~n:2 ~reps:3
      ~facets:(explore_alg1 ?domains:None)
      (explore_alg1 ?domains:None);
    (* the same explorations fanned out over the domain pool; the
       counts are bit-identical to the sequential entries above *)
    entry ~name:"explore_is_par" ~n:3 ~reps:3
      ~facets:(fun () -> explore_is ~domains:4 ())
      (fun () -> explore_is ~domains:4 ());
    entry ~name:"explore_alg1_par" ~n:2 ~reps:3
      ~facets:(fun () -> explore_alg1 ~domains:4 ())
      (fun () -> explore_alg1 ~domains:4 ());
  ]

(* the same R_A under a tight cache cap: steady state now pays
   eviction churn and recomputation — the price of bounded memory *)
let capped_entries () =
  let a1 = alpha_1res () in
  let old_cap = Cache.default_cap () in
  Cache.set_default_cap 64;
  Cache.clear_all ();
  Fun.protect
    ~finally:(fun () -> Cache.set_default_cap old_cap)
    (fun () ->
      [
        entry ~name:"ra_1res_cap64" ~n:3 ~reps:20
          ~facets:(fun () -> Complex.facet_count (Ra.complex a1 ~n:3))
          (fun () -> Ra.complex a1 ~n:3);
      ])

(* fact serve, cold vs warm: a cold one-shot pays the full pipeline on
   empty memo tables; a warm served request is a result-cache hit plus
   one socket round trip. The warm entry is per-rep timed: its p99 is
   the served-latency figure the wire path is judged on. *)
let serve_entries () =
  let dir =
    let d = Filename.temp_file "fact-bench-serve" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let store = Store.open_dir (Filename.concat dir "store") in
  let scheduler = Scheduler.create ~store () in
  let sock = Filename.concat dir "bench.sock" in
  let listener = Listener.start_scheduler ~scheduler (Listener.Unix_sock sock) in
  let cleanup () =
    Listener.stop listener;
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat (Store.dir store) f)
        with Sys_error _ -> ())
      (try Sys.readdir (Store.dir store) with Sys_error _ -> [||]);
    List.iter
      (fun p -> try Unix.rmdir p with Unix.Unix_error _ -> ())
      [ Store.dir store; dir ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let q = Query.Ra { n = 3; adv = Query.Preset "wait-free" } in
      let cold =
        entry ~name:"serve_ra_cold_oneshot" ~n:3 ~reps:3
          ~facets:(fun () -> 169)
          (fun () ->
            Cache.clear_all ();
            Query.eval q)
      in
      Client.with_connection (Listener.Unix_sock sock) (fun c ->
          ignore (Client.query c q);
          [
            cold;
            entry ~percentiles:true ~name:"serve_ra_warm" ~n:3 ~reps:200
              ~facets:(fun () -> 169)
              (fun () -> Client.query c q);
          ]))

(* one cold n=4 [ra] query as [fact serve] computes it: R_A, closure
   counts, volume, the link check and the 15 restrictions. Every rep
   builds a fresh agreement function, so the verdict caches keyed by it
   (ra.facet_ok, critical.analyze) start empty; Chr² s and the
   per-vertex views stay warm from the warmup run, as in a long-lived
   server. *)
let ra_query_entries () =
  let adv = Query.Live [ [ 0; 2 ]; [ 3 ]; [ 2; 3 ] ] in
  [
    entry ~name:"ra_query" ~n:4 ~reps:5
      ~facets:(fun () ->
        Complex.facet_count
          (Ra.complex
             (Agreement.of_adversary (Query.adversary ~n:4 adv))
             ~n:4))
      (fun () -> Query.eval (Query.Ra { n = 4; adv }));
  ]

(* advertised names, execution order; groups share setup *)
let groups :
    (string list * (unit -> result list)) list Lazy.t =
  lazy
    [
      ([ "chr_iterate2"; "chr_iterate2" ], chr_entries);
      ([ "ra_1res"; "ra_fig5b" ], ra_entries);
      ([ "closure_chr2"; "closure_chr2_stream" ], closure_entries);
      ( [ "explore_is"; "explore_alg1"; "explore_is_par"; "explore_alg1_par" ],
        explore_entries );
      ([ "ra_1res_cap64" ], capped_entries);
      ([ "serve_ra_cold_oneshot"; "serve_ra_warm" ], serve_entries);
      ([ "ra_query" ], ra_query_entries);
    ]

let names = List.concat_map fst (Lazy.force groups)

let matches_one f name =
  let fl = String.lowercase_ascii f and nl = String.lowercase_ascii name in
  let n = String.length nl and m = String.length fl in
  let rec go i = i + m <= n && (String.sub nl i m = fl || go (i + 1)) in
  m = 0 || go 0

let matches filters name =
  filters = [] || List.exists (fun f -> matches_one f name) filters

let run ?(filters = []) () =
  List.iter
    (fun f ->
      if not (List.exists (matches_one f) names) then
        Fact_error.precondition ~fn:"Bench_entries.run"
          (Printf.sprintf "--filter %S matches no entry (entries: %s)" f
             (String.concat " " (List.sort_uniq compare names))))
    filters;
  Cache.reset_counters ();
  List.concat_map
    (fun (group_names, run_group) ->
      if List.exists (matches filters) group_names then
        List.filter (fun r -> matches filters r.name) (run_group ())
      else [])
    (Lazy.force groups)

let line r =
  Printf.sprintf
    "%-18s n=%d %10.3f ms%s  facets=%d  gc minor=%.0fw major=%.0fw \
     cols=%.1f/%.1f  cache hits+%d misses+%d evictions+%d"
    r.name r.n r.wall_ms
    (match r.p99_ms with
    | None -> ""
    | Some p -> Printf.sprintf " (p99 %.3f ms)" p)
    r.facets r.minor_words r.major_words r.minor_collections
    r.major_collections r.hits r.misses r.evictions

let json_line r =
  Printf.sprintf
    "  {\"name\": \"%s\", \"n\": %d, \"wall_ms\": %.3f, %s\"facets\": %d, \
     \"gc_delta\": {\"minor_words\": %.0f, \"major_words\": %.0f, \
     \"minor_collections\": %.2f, \"major_collections\": %.2f}, \
     \"cache_delta\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d}}"
    r.name r.n r.wall_ms
    (match r.p99_ms with
    | None -> ""
    | Some p -> Printf.sprintf "\"p99_ms\": %.3f, " p)
    r.facets r.minor_words r.major_words r.minor_collections
    r.major_collections r.hits r.misses r.evictions

(* ------------------------------- gate ------------------------------ *)

(* The baseline is a committed BENCH_topology.json: one entry object
   per line, scanned with the same field extractors the campaign gate
   uses (Report.str_field / num_field) — entry lines are the ones that
   carry both a name and a wall_ms, which skips the cache trailer. *)

type baseline_entry = {
  b_name : string;
  b_n : int;
  b_wall_ms : float;
  b_minor_words : float option;
}

let parse_baseline contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun l ->
         match (Report.str_field l "name", Report.num_field l "wall_ms") with
         | Some b_name, Some b_wall_ms ->
           Some
             {
               b_name;
               b_n =
                 (match Report.num_field l "n" with
                 | Some n -> int_of_float n
                 | None -> 0);
               b_wall_ms;
               b_minor_words = Report.num_field l "minor_words";
             }
         | _ -> None)

(* The gate is keyed on the {e current} results: a filtered run gates
   only the entries it ran (CI pins coverage on the command line), and
   a result with no baseline line fails — adding an entry means
   refreshing the baseline in the same change. *)
let gate ?(tolerance = 4.0) ?(slack_ms = 50.) ?(alloc_tolerance = 2.0)
    ?(slack_words = 50_000.) ~baseline results =
  let entries = parse_baseline baseline in
  if entries = [] then Error [ "gate: baseline contains no entries" ]
  else if results = [] then Error [ "gate: no results to gate" ]
  else begin
    let violations =
      List.concat_map
        (fun r ->
          match
            List.find_opt
              (fun b -> b.b_name = r.name && b.b_n = r.n)
              entries
          with
          | None ->
            [ Printf.sprintf
                "missing: entry %s n=%d has no baseline line (refresh the \
                 baseline)"
                r.name r.n ]
          | Some b ->
            let slow =
              let budget = (tolerance *. b.b_wall_ms) +. slack_ms in
              if r.wall_ms > budget then
                [ Printf.sprintf
                    "slow: %s n=%d took %.3f ms, budget %.3f ms (%.3f ms \
                     baseline x %.1f + %.0f ms slack)"
                    r.name r.n r.wall_ms budget b.b_wall_ms tolerance slack_ms ]
              else []
            in
            let churny =
              match b.b_minor_words with
              | None -> []
              | Some base ->
                let budget = (alloc_tolerance *. base) +. slack_words in
                if r.minor_words > budget then
                  [ Printf.sprintf
                      "alloc: %s n=%d allocated %.0f minor words/rep, budget \
                       %.0f (%.0f baseline x %.1f + %.0f slack)"
                      r.name r.n r.minor_words budget base alloc_tolerance
                      slack_words ]
                else []
            in
            slow @ churny)
        results
    in
    if violations = [] then Ok (List.length results) else Error violations
  end
