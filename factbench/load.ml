type verdict = Done | Failed of string | Exhausted

type result = {
  attempted : int;
  failed : int;
  failures : string list;
  latencies_ms : float array;
  ends_s : float array;
  elapsed_s : float;
}

type lane = {
  mutable lat : float array;
  mutable ends : float array;
  mutable len : int;
  mutable nfailed : int;
  mutable reasons : string list;
  mutable last_end : float;
}

let grow a len =
  let b = Array.make (2 * len + 16) 0. in
  Array.blit a 0 b 0 len;
  b

let push l x ~at =
  if l.len = Array.length l.lat then begin
    l.lat <- grow l.lat l.len;
    l.ends <- grow l.ends l.len
  end;
  l.lat.(l.len) <- x;
  l.ends.(l.len) <- at;
  l.len <- l.len + 1

let drive ~seconds ~start op lane c =
  let deadline = start +. seconds in
  let rec loop () =
    let t0 = Clock.now_s () in
    if t0 < deadline then begin
      let v = try op c with e -> Failed (Printexc.to_string e) in
      let t1 = Clock.now_s () in
      match v with
      | Exhausted -> ()
      | Done ->
        push lane ((t1 -. t0) *. 1000.) ~at:(t1 -. start);
        lane.last_end <- t1;
        loop ()
      | Failed why ->
        (* a failed op misses every latency limit *)
        push lane infinity ~at:(t1 -. start);
        lane.nfailed <- lane.nfailed + 1;
        if List.length lane.reasons < 5 then lane.reasons <- why :: lane.reasons;
        lane.last_end <- t1;
        loop ()
    end
  in
  loop ()

let closed_loop ~conns ~seconds op =
  let start = Clock.now_s () in
  let lanes =
    Array.init conns (fun _ ->
        { lat = [||]; ends = [||]; len = 0; nfailed = 0; reasons = []; last_end = start })
  in
  (if conns = 1 then drive ~seconds ~start op lanes.(0) 0
   else
     Array.mapi (fun c lane -> Thread.create (drive ~seconds ~start op lane) c) lanes
     |> Array.iter Thread.join);
  let cat f = Array.concat (Array.to_list (Array.map (fun l -> Array.sub (f l) 0 l.len) lanes)) in
  let lat = cat (fun l -> l.lat) in
  let last = Array.fold_left (fun m l -> Float.max m l.last_end) start lanes in
  {
    attempted = Array.length lat;
    failed = Array.fold_left (fun n l -> n + l.nfailed) 0 lanes;
    failures = List.concat_map (fun l -> List.rev l.reasons) (Array.to_list lanes);
    latencies_ms = lat;
    ends_s = cat (fun l -> l.ends);
    elapsed_s = Float.max 1e-9 (last -. start);
  }
