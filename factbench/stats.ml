let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0. || sorted.(hi) = sorted.(lo) then sorted.(lo)
    else sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median a = percentile (sorted a) 50.

(* Percentiles in hundredths of a percent, so that rank arithmetic is
   exact integer arithmetic. *)
let ladder = [ 9999; 9990; 9900; 9000; 5000 ]

let beyond ~n p100 = n - (((p100 * n) + 9999) / 10000)

let tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun p100 ->
      let b = beyond ~n p100 in
      if b >= 10 then
        let p = float_of_int p100 /. 100. in
        Some (p, percentile sorted p, b)
      else None)
    ladder

let windows ~n = max 1 (min 5 (n / 100_000))

let windowed ~elapsed_s ~ends ~lat ~k f =
  let w = elapsed_s /. float_of_int k in
  let bins = Array.make k [] in
  Array.iteri
    (fun i e -> let b = min (k - 1) (int_of_float (e /. w)) in bins.(b) <- lat.(i) :: bins.(b))
    ends;
  median (Array.map (fun l -> f ~seconds:w (sorted (Array.of_list l))) bins)
