(* Tests of the benchmark itself: seeded inputs, the percentile helper
   and failure accounting. *)

open Factbench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cold seed = String.concat "\n" (List.map Inputs.render_query (Inputs.cold_sequence ~seed 200))
let hot seed = String.concat "\n" (Array.to_list (Array.map Inputs.render_query (Inputs.hot_keys ~seed)))
let hot_idx seed = Inputs.hot_sequence ~seed ~conn:0 ~keys:36 500
let decide seed = String.concat "\n" (List.map Inputs.render_instance (Inputs.decide_sequence ~seed 200))

let setup_advs seed = Inputs.decide_setup_adversaries (Inputs.decide ~seed) 12

let test_seeds () =
  Alcotest.(check string) "cold: same seed, same bytes" (cold 7) (cold 7);
  check_bool "cold: other seed differs" true (cold 7 <> cold 8);
  Alcotest.(check string) "hot keys: same seed" (hot 7) (hot 7);
  check_bool "hot keys: other seed differs" true (hot 7 <> hot 8);
  Alcotest.(check (list int)) "hot stream: same seed" (hot_idx 7) (hot_idx 7);
  check_bool "hot stream: other seed differs" true (hot_idx 7 <> hot_idx 8);
  Alcotest.(check string) "decide: same seed" (decide 7) (decide 7);
  check_bool "decide: other seed differs" true (decide 7 <> decide 8);
  Alcotest.(check (list (list (list int)))) "decide set-up: same seed" (setup_advs 7) (setup_advs 7);
  check_bool "decide set-up: other seed differs" true (setup_advs 7 <> setup_advs 8);
  let g = Inputs.decide ~seed:7 in
  ignore (Inputs.decide_setup_adversaries g 12);
  Alcotest.(check string) "decide set-up leaves the sequence as it was" (decide 7)
    (String.concat "\n" (List.init 200 (fun _ -> Inputs.render_instance (Inputs.decide_next g))))

let test_cold_distinct () =
  let qs = List.map Inputs.render_query (Inputs.cold_sequence ~seed:3 1000) in
  check_int "no repeats" 1000 (List.length (List.sort_uniq compare qs))

let test_tail () =
  let samples n = Stats.sorted (Array.init n float_of_int) in
  let tail n = Stats.tail (samples n) in
  let p n = Option.map (fun (p, _, _) -> p) (tail n) in
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (p 1000);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 90.) (p 999);
  Alcotest.(check (option (float 0.))) "100000 samples: p99.99" (Some 99.99) (p 100_000);
  Alcotest.(check (option (float 0.))) "19 samples: none" None (p 19);
  (match tail 1000 with
  | Some (_, v, beyond) ->
    check_int "10 beyond p99 of 1000" 10 beyond;
    Alcotest.(check (float 1e-9)) "p99 of 0..999" 989.01 v
  | None -> Alcotest.fail "no tail");
  Alcotest.(check (float 1e-9)) "median" 2. (Stats.median [| 3.; 1.; 2. |])

let test_failures_counted () =
  let n = Atomic.make 0 in
  let op _ =
    match Atomic.fetch_and_add n 1 with
    | 0 -> Load.Failed "refused"
    | 1 -> Fact_resilience.Fact_error.unavailable "timed out"
    | 2 | 3 -> Load.Done
    | _ -> Load.Exhausted
  in
  let r = Load.closed_loop ~conns:1 ~seconds:5. op in
  check_int "attempted" 4 r.Load.attempted;
  check_int "failed" 2 r.Load.failed;
  check_int "latencies" 4 (Array.length r.Load.latencies_ms);
  check_int "failed ops are infinitely late" 2
    (Array.length (Array.of_list (List.filter (fun x -> x = infinity) (Array.to_list r.Load.latencies_ms))))

let () =
  Alcotest.run "factbench"
    [
      ( "factbench",
        [
          ("same seed, same inputs", `Quick, test_seeds);
          ("cold queries never repeat", `Quick, test_cold_distinct);
          ("percentile tail helper", `Quick, test_tail);
          ("refused and timed-out ops count as failed", `Quick, test_failures_counted);
        ] );
    ]
