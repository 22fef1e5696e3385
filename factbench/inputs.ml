open Fact_topology
open Fact_adversary
open Fact_serve

let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let live_of_masks ms = List.map (fun m -> Pset.to_list (Pset.of_mask m)) ms

(* 1 to 4 distinct live sets, as sorted bitmasks. *)
let random_live rng ~n =
  let k = 1 + Random.State.int rng 4 in
  let rec draw acc =
    if List.length acc = k then acc
    else
      let m = 1 + Random.State.int rng ((1 lsl n) - 1) in
      draw (if List.mem m acc then acc else m :: acc)
  in
  live_of_masks (List.sort compare (draw []))

let render_query q = Fact_sexp.Sexp.to_string (Query.to_sexp q)

(* ------------------------------ serve_cold ------------------------ *)

type slot = Ra4 of int | Ra3 | Cheap of string * int | Chr

(* One cycle of the cold mix, 18 requests.

   The six n=4 [ra] requests are the expensive group. Their cost depends
   mostly on the adversary's agreement power, about 250-550 ms at setcon
   1 and 600-1000 ms at setcon 2, so each cycle takes a fixed four of
   the first and two of the second rather than whatever a random draw
   gives. Both connections pull from this one sequence and send at
   nearly the same moment, so the request next to an n=4 [ra] waits for
   most of it on the single executor: about 70% of requests are slow,
   twice the share of n=4 [ra]. Spacing the expensive requests exactly
   3 apart keeps two of them from ever sharing the executor.

   The rest take about a millisecond each, most of it the store's fsync
   (an n=3 [ra] about 5 ms). Their latency follows the disk's fsync
   time, which on a shared machine varies by a third from run to run,
   so the median is put inside the slow group instead, about a third
   into the setcon-1 requests, where samples are dense; a larger cheap
   share would put it at the slow group's sparse low edge. p90 then lies
   inside the setcon-2 requests and p99 at their top. *)
let cold_expensive = [| Ra4 1; Ra4 1; Ra4 1; Ra4 1; Ra4 2; Ra4 2 |]

let cold_expensive_at = [ 0; 3; 6; 9; 12; 15 ]

let cold_cheap =
  Array.concat
    [ [| Ra3; Ra3; Chr; Cheap ("critical", 3); Cheap ("setcon", 3); Cheap ("fairness", 3) |];
      Array.make 2 (Cheap ("critical", 4)); Array.make 2 (Cheap ("setcon", 4));
      Array.make 2 (Cheap ("fairness", 4)) ]

let cold_cycle_length = 18

let cold_cycle r =
  let exp = shuffle r cold_expensive and cheap = shuffle r cold_cheap in
  let e = ref 0 and c = ref 0 in
  let take a i = incr i; a.(!i - 1) in
  List.init cold_cycle_length (fun i -> if List.mem i cold_expensive_at then take exp e else take cheap c)

(* Every (n, m) whose Chr^m s has at most ~6600 facets. *)
let chr_pool =
  List.concat
    [ List.init 4 (fun m -> (1, m)); List.init 9 (fun m -> (2, m));
      List.init 4 (fun m -> (3, m)); List.init 3 (fun m -> (4, m)) ]

type cold = {
  c_rng : Random.State.t;
  seen : (string, unit) Hashtbl.t;
  mutable chr_left : (int * int) list;
  mutable pending : slot list;
}

let cold ~seed =
  let c_rng = rng ~seed 1 in
  let chr_left = Array.to_list (shuffle c_rng (Array.of_list chr_pool)) in
  { c_rng; seen = Hashtbl.create 1024; chr_left; pending = [] }

let fresh g q =
  let key = render_query q in
  if Hashtbl.mem g.seen key then false
  else (
    Hashtbl.add g.seen key ();
    true)

let rec cold_next g =
  match g.pending with
  | [] ->
    g.pending <- cold_cycle g.c_rng;
    cold_next g
  | slot :: rest -> (
    g.pending <- rest;
    let rec draw tries make =
      if tries = 0 then None
      else
        let q = make () in
        if fresh g q then Some q else draw (tries - 1) make
    in
    let adv n = Query.Live (random_live g.c_rng ~n) in
    let power n l = Setcon.setcon (Adversary.make ~n (List.map Pset.of_list l)) in
    let rec live_of_power tries n p =
      let l = random_live g.c_rng ~n in
      if power n l = p || tries = 0 then l else live_of_power (tries - 1) n p
    in
    let q =
      match slot with
      | Ra4 p -> draw 64 (fun () -> Query.Ra { n = 4; adv = Query.Live (live_of_power 256 4 p) })
      | Ra3 -> draw 64 (fun () -> Query.Ra { n = 3; adv = adv 3 })
      | Cheap (ep, n) ->
        draw 64 (fun () ->
            match ep with
            | "critical" -> Query.Critical { n; adv = adv n }
            | "setcon" -> Query.Setcon { n; adv = adv n }
            | _ -> Query.Fairness { n; adv = adv n })
      | Chr -> (
        match g.chr_left with
        | [] -> None
        | (n, m) :: rest ->
          g.chr_left <- rest;
          let q = Query.Chr { n; m } in
          ignore (fresh g q);
          Some q)
    in
    (* an exhausted pool skips its slot; the n=4 pools never run dry *)
    match q with Some q -> q | None -> cold_next g)

let cold_sequence ~seed count =
  let g = cold ~seed in
  List.init count (fun _ -> cold_next g)

(* ------------------------------ serve_hot ------------------------- *)

let hot_keys ~seed =
  let r = rng ~seed 2 in
  let seen = Hashtbl.create 16 in
  let rec advs acc =
    if List.length acc = 8 then acc
    else
      let l = random_live r ~n:3 in
      if Hashtbl.mem seen l then advs acc
      else (
        Hashtbl.add seen l ();
        advs (Query.Live l :: acc))
  in
  let per_adv adv =
    [ Query.Ra { n = 3; adv }; Query.Critical { n = 3; adv };
      Query.Setcon { n = 3; adv }; Query.Fairness { n = 3; adv } ]
  in
  let chr = List.map (fun (n, m) -> Query.Chr { n; m }) [ (2, 1); (2, 2); (3, 1); (3, 2) ] in
  shuffle r (Array.of_list (List.concat_map per_adv (List.rev (advs [])) @ chr))

let zipf_cdf ~keys =
  let w = Array.init keys (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let hot_stream ~seed ~conn ~keys =
  let r = rng ~seed (100 + conn) in
  let cdf = zipf_cdf ~keys in
  fun () ->
    let u = Random.State.float r 1. in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then find lo mid else find (mid + 1) hi
    in
    find 0 (keys - 1)

let hot_sequence ~seed ~conn ~keys count =
  let next = hot_stream ~seed ~conn ~keys in
  List.init count (fun _ -> next ())

(* -------------------------------- decide -------------------------- *)

type instance =
  | Setcon_unsat of int list list
  | Setcon_mu of int list list
  | Approx of { n : int; ell : int; range : int }
  | Explore_is
  | Explore_alg1

let render_instance = function
  | Setcon_unsat l -> Printf.sprintf "setcon-unsat %s" (render_query (Query.Setcon { n = 3; adv = Query.Live l }))
  | Setcon_mu l -> Printf.sprintf "setcon-mu %s" (render_query (Query.Setcon { n = 3; adv = Query.Live l }))
  | Approx { n; ell; range } -> Printf.sprintf "approx n=%d ell=%d range=%d" n ell range
  | Explore_is -> "explore is n=3"
  | Explore_alg1 -> "explore alg1 n=2"

(* Fair n=3 live-set adversaries, with their agreement power. *)
let fair_adversaries () =
  List.init 127 (fun i ->
      live_of_masks (List.filter (fun m -> (i + 1) land (1 lsl (m - 1)) <> 0) [ 1; 2; 3; 4; 5; 6; 7 ]))
  |> List.filter_map (fun l ->
         let a = Adversary.make ~n:3 (List.map Pset.of_list l) in
         if Fairness.is_fair a then Some (l, Setcon.setcon a) else None)
  |> Array.of_list

type slot_d = Unsat | Mu | Aa2_one | Aa2_two | Aa2_wide | Aa3 | Is | Alg1

(* The unsolvable two-round instances hold p90, and their cost grows
   with the range, so each cycle takes each of these ranges once. *)
let wide_ranges = [| 10; 12; 14; 16; 18; 20 |]

(* One cycle of the decide mix, 40 instances, cheapest first: n=2
   approximate agreement at one round (under 1 ms), at n=3 (2-4 ms),
   set consensus below setcon (about 7 ms) and at setcon (about 10 ms),
   IS explorations (about 20 ms), n=2 approximate agreement at two
   rounds with range 2-9 (solvable, up to 25 ms) and 10-20 (unsolvable,
   30-80 ms), and one Algorithm 1 exploration (about 300 ms).

   The median lands inside the set-consensus decisions, p90 inside the
   unsolvable two-round instances and p99 inside the Algorithm 1
   explorations. Only one Algorithm 1 exploration per cycle: each one
   leaves about 15 MB of resident memory behind. *)
let decide_cycle =
  Array.concat
    [ [| Alg1; Is; Is |]; Array.make 12 Mu; Array.make 9 Unsat; Array.make 4 Aa2_one;
      Array.make 3 Aa2_two; Array.make (Array.length wide_ranges) Aa2_wide; Array.make 3 Aa3 ]

let decide_cycle_length = Array.length decide_cycle

type decide = {
  d_rng : Random.State.t;
  fair : (int list list * int) array;
  power2 : (int list list * int) array;
  mutable d_pending : slot_d list;
  mutable wide_left : int list;
}

let decide ~seed =
  let fair = fair_adversaries () in
  let power2 = Array.of_list (List.filter (fun (_, p) -> p = 2) (Array.to_list fair)) in
  { d_rng = rng ~seed 3; fair; power2; d_pending = []; wide_left = [] }

let pick r a = a.(Random.State.int r (Array.length a))

let rec decide_next g =
  match g.d_pending with
  | [] ->
    g.d_pending <- Array.to_list (shuffle g.d_rng decide_cycle);
    g.wide_left <- Array.to_list (shuffle g.d_rng wide_ranges);
    decide_next g
  | slot :: rest -> (
    g.d_pending <- rest;
    let r = g.d_rng in
    match slot with
    | Alg1 -> Explore_alg1
    | Is -> Explore_is
    | Mu -> Setcon_mu (fst (pick r g.fair))
    | Unsat ->
      (* k = setcon - 1 is decided only at power 2: power 1 leaves k = 0,
         and at power 3 (wait-free) the instance is a Sperner
         configuration the search cannot refute *)
      Setcon_unsat (fst (pick r g.power2))
    | Aa2_one -> Approx { n = 2; ell = 1; range = 2 + Random.State.int r 19 }
    | Aa2_two -> Approx { n = 2; ell = 2; range = 2 + Random.State.int r 8 }
    | Aa2_wide ->
      let range = List.hd g.wide_left in
      g.wide_left <- List.tl g.wide_left;
      Approx { n = 2; ell = 2; range }
    | Aa3 -> Approx { n = 3; ell = 1; range = 2 + Random.State.int r 5 })

(* A copy of the generator's stream, so the set-up leaves the sequence
   of instances as [decide_sequence] gives it. *)
let decide_setup_adversaries g k =
  Array.to_list (Array.sub (shuffle (Random.State.copy g.d_rng) g.fair) 0 (min k (Array.length g.fair)))
  |> List.map fst

let decide_sequence ~seed count =
  let g = decide ~seed in
  List.init count (fun _ -> decide_next g)

(* One Chr round shrinks the reachable output interval by 3 for two
   processes and by 2 for three or more. *)
let approx_solvable ~n ~ell ~range =
  let base = if n = 2 then 3 else 2 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  pow base ell >= range
