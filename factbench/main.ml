(* The end-to-end benchmark: one workload, one seed, one run.
   See README.md for the workloads and the layer -> metric map. *)

open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_tasks
open Fact_serve
open Factbench
module Cache = Fact_resilience.Cache
module Fact_error = Fact_resilience.Fact_error
module Explore = Fact_check.Explore
module Harness = Fact_check.Harness

let nproc = Domain.recommended_domain_count ()

(* the program's own default, before any phase of this run changes it *)
let default_domains = Parallel.default_domains ()
let conns = min 2 nproc

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
  mutable notes : (string * string) list;
}

let run = { correct = true; attempted = 0; failed = 0; metrics = []; notes = [] }
let metric name unit_ v = run.metrics <- (name, v, unit_) :: run.metrics
let note k v = run.notes <- (k, v) :: run.notes

let fail_check what n =
  if n > 0 then begin
    run.correct <- false;
    run.failed <- run.failed + n;
    note ("check:" ^ what) (Printf.sprintf "%d mismatches" n)
  end

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e308"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  List.rev ms
  |> List.map (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v) (json_str u))
  |> String.concat ", "

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let time_ms f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.ms_since t0)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                 *)
(* ------------------------------------------------------------------ *)

let count_load (r : Load.result) =
  run.attempted <- run.attempted + r.attempted;
  run.failed <- run.failed + r.failed;
  if r.failed > 0 then begin
    run.correct <- false;
    note "failures" (String.concat " | " r.failures)
  end

let end_to_end ~setup_s ~(r : Load.result) ~cpu_s ~rss_mb =
  count_load r;
  let s = Stats.sorted r.latencies_ms in
  let n = Array.length s in
  let k = Stats.windows ~n in
  let w f = Stats.windowed ~elapsed_s:r.elapsed_s ~ends:r.ends_s ~lat:r.latencies_ms ~k f in
  let p q = w (fun ~seconds:_ s -> Stats.percentile s q) in
  let ok ~seconds s = float_of_int (Array.fold_left (fun c x -> if x = infinity then c else c + 1) 0 s) /. seconds in
  metric "setup_s" "s" setup_s;
  metric "ops_per_s" "1/s" (w ok);
  metric "op_p50_ms" "ms" (p 50.);
  metric "op_p90_ms" "ms" (p 90.);
  metric "op_p99_ms" "ms" (p 99.);
  metric "cpu_ms_per_op" "ms" (cpu_s *. 1000. /. float_of_int (max 1 r.attempted));
  metric "peak_rss_mb" "MiB" rss_mb;
  note "samples"
    (Printf.sprintf "n=%d windows=%d p50/p90/p99 beyond=%d/%d/%d%s" n k (Stats.beyond ~n 5000) (Stats.beyond ~n 9000)
       (Stats.beyond ~n 9900)
       (match Stats.tail s with
       | Some (tp, v, b) -> Printf.sprintf " tail=p%g:%.4fms(beyond=%d)" tp v b
       | None -> ""))

(* [ok_frac] is reported after the output checks, which may turn
   completed operations into failed ones. *)
let report_ok_frac () =
  let a = max 1 run.attempted in
  metric "ok_frac" "fraction" (float_of_int (a - run.failed) /. float_of_int a);
  note "failed_frac" (Printf.sprintf "%d/%d" run.failed run.attempted)

(* ------------------------------------------------------------------ *)
(* Served workloads                                                   *)
(* ------------------------------------------------------------------ *)

type served = { query : Query.t; payload : string; req : int }

(* Tracing overhead: when a run is traced, half the ops record their
   spans and the rest do not, alternating so that both halves see the
   same mix on the same state: every other op of each connection on
   serve_hot, every other cycle of the mix on serve_cold and decide.
   The overhead is the difference of their mean op times, each taken
   with the span recording inside it. *)
let op_ms = [| [| 0.; 0. |]; [| 0.; 0. |] |]
let op_count = [| [| 0; 0 |]; [| 0; 0 |] |]
let traced_ops = ref 0

(* The ops whose spans a layer's self time is spread over: the client
   spans come from the traced ops of the measured phase; on serve_cold
   every other layer comes from the in-process replay of every served
   query. *)
let replayed_ops = ref None

let span_ops layer =
  match (layer, !replayed_ops) with "client", _ | _, None -> !traced_ops | _, Some n -> n

let account c ~traced ms =
  let t = Bool.to_int traced in
  op_ms.(c).(t) <- op_ms.(c).(t) +. ms;
  op_count.(c).(t) <- op_count.(c).(t) + 1

let report_overhead () =
  let mean t =
    let ms = op_ms.(0).(t) +. op_ms.(1).(t) and n = op_count.(0).(t) + op_count.(1).(t) in
    ms /. float_of_int (max 1 n)
  in
  traced_ops := op_count.(0).(1) + op_count.(1).(1);
  metric "trace.overhead_pct" "%" ((mean 1 /. mean 0 -. 1.) *. 100.)

(* Runs [seconds] of closed-loop load over [conns] connections. [next c]
   gives connection [c]'s next request, with whether a traced run
   records its span, and [accept] judges a reply. *)
let drive_server (srv : Server.t) ~seconds ~trace ~next ~accept =
  let clients = Array.init conns (fun _ -> Some (Client.connect ~timeout_s:60. srv.addr)) in
  let reqs = Atomic.make 0 in
  let op c =
    match next c with
    | None -> Load.Exhausted
    | Some (q, tag, traced) -> (
      let cl =
        match clients.(c) with
        | Some cl -> cl
        | None ->
          let cl = Client.connect ~timeout_s:60. srv.addr in
          clients.(c) <- Some cl;
          cl
      in
      let req = Atomic.fetch_and_add reqs 1 in
      let traced = trace && traced in
      let start_ns = Clock.now_ns () in
      match Client.query cl q with
      | payload, source ->
        let end_ns = Clock.now_ns () in
        if traced then Spans.record ~name:("client." ^ Query.endpoint q) ~req ~start_ns ~end_ns;
        if trace then account c ~traced (Int64.to_float (Int64.sub (Clock.now_ns ()) start_ns) *. 1e-6);
        accept c tag ~req payload source
      | exception (Fact_error.Error e as exn) ->
        if Fact_error.is_unavailable exn then begin
          (try Client.close cl with _ -> ());
          clients.(c) <- None
        end;
        Load.Failed (Fact_error.to_string e))
  in
  let cpu0 = Procinfo.cpu_s (Server.pid_s srv) in
  let r = Load.closed_loop ~conns ~seconds op in
  let cpu = Procinfo.cpu_s (Server.pid_s srv) -. cpu0 in
  let rss = Procinfo.peak_rss_mb (Server.pid_s srv) in
  Array.iter (Option.iter (fun cl -> try Client.close cl with _ -> ())) clients;
  (r, cpu, rss)

(* A server that dies during the measured phase fails every request
   from then on: its socket is left behind, so each connect is refused
   and counts as a failed op. A server that exits nonzero at shutdown is
   a failed op, and so is a socket file the measured server leaves
   behind. The servers stopped during set-up answered no measured op: a
   socket they leave is counted in the environment. *)
let setup_sockets_left = ref 0

let stop_server ?(measured = true) srv =
  let status, exit0, socket_left = Server.stop srv in
  if measured || not exit0 then note "server_exit" status;
  if socket_left && not measured then incr setup_sockets_left;
  if socket_left && measured then note "socket_left_behind" srv.Server.sock;
  if (not exit0) || (socket_left && measured) then begin
    run.correct <- false;
    run.attempted <- run.attempted + 1;
    run.failed <- run.failed + 1
  end

(* Set-up time is the median of [setups] fresh set-ups in a row; the
   servers of all but the last are stopped again. *)
let setups = 9

let set_up_server make =
  let rec go i times =
    let srv, ms = time_ms (fun () -> make i) in
    if i = setups - 1 then (srv, Stats.median (Array.of_list (ms :: times)) /. 1000.)
    else begin
      stop_server ~measured:false srv;
      go (i + 1) (ms :: times)
    end
  in
  go 0 []

(* --- server stats text ------------------------------------------- *)

(* A counter the stats text no longer carries is a failed check, not a
   zero. *)
let field line key =
  List.find_map
    (fun w ->
      match String.split_on_char '=' w with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' line)
  |> function
  | Some v -> v
  | None ->
    fail_check ("server stats field " ^ key) 1;
    0

let stats_line text prefix =
  List.find_opt (fun l -> String.starts_with ~prefix l) (String.split_on_char '\n' text)
  |> Option.value ~default:""

(* The lines after "pipeline caches:", one per registered memo cache. *)
let pipeline_caches text =
  let rec after = function [] -> [] | l :: rest -> if l = "pipeline caches:" then rest else after rest in
  after (String.split_on_char '\n' text)
  |> List.filter_map (fun l ->
         match List.filter (( <> ) "") (String.split_on_char ' ' l) with
         | name :: _ -> Some (name, (field l "hits", field l "misses", field l "evictions"))
         | [] -> None)

(* --- per-layer metrics shared by the served workloads -------------- *)

let cache_metrics ~before ~after =
  List.iter
    (fun (name, (h1, m1, e1)) ->
      let h0, m0, e0 = Option.value ~default:(0, 0, 0) (List.assoc_opt name before) in
      let h = h1 - h0 and m = m1 - m0 in
      metric ("cache." ^ name ^ ".hit_ratio") "ratio"
        (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m));
      metric ("cache." ^ name ^ ".evictions") "count" (float_of_int (e1 - e0)))
    after

let scheduler_metrics ~before ~after =
  let d line key = field (stats_line after line) key - field (stats_line before line) key in
  let hits = d "result cache:" "hits" and misses = d "result cache:" "misses" in
  metric "scheduler.hit_ratio" "ratio"
    (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
  metric "scheduler.dedup_joins" "count" (float_of_int (d "scheduler:" "dedup_joins"));
  metric "store.puts" "count" (float_of_int (d "store:" "puts"));
  cache_metrics ~before:(pipeline_caches before) ~after:(pipeline_caches after)

(* Frame sizes and encode/decode cost of the (query, payload) pairs a
   run exchanged, on the program's own wire path: [Wire.write_request]
   and [Wire.write_response] through a writer over /dev/null (one write
   per frame, as on a socket), and [Wire.read_frame_view] +
   [Sexp.of_substring] + [Wire.request_of_sexp] / [response_of_sexp]
   through a reader over a file of the same frames. Both are per round
   trip: one request and one response frame. Every frame must decode
   back to what was encoded. *)
let wire_metrics ~dir pairs =
  let n = Array.length pairs in
  if n > 0 then begin
    let reqs = Array.map (fun (q, _) -> Wire.Query { query = q; deadline_s = None }) pairs in
    let resps = Array.map (fun (_, p) -> Wire.Payload { payload = p; source = Wire.Memory }) pairs in
    let path = Filename.concat dir "frames" in
    let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC ] 0o644 in
    let w = Wire.writer fd in
    let pos () = Unix.lseek fd 0 Unix.SEEK_CUR in
    let req_bytes = ref 0 and resp_bytes = ref 0 in
    Array.iteri
      (fun i r ->
        let p0 = pos () in
        Wire.write_request w r;
        let p1 = pos () in
        Wire.write_response w resps.(i);
        req_bytes := !req_bytes + (p1 - p0);
        resp_bytes := !resp_bytes + (pos () - p1))
      reqs;
    let r = Wire.reader fd in
    let decode_all check =
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      for i = 0 to n - 1 do
        let frame of_sexp =
          match Wire.read_frame_view r ~max_frame:Wire.default_max_frame with
          | Ok (raw, len) -> Result.bind (Fact_sexp.Sexp.of_substring raw ~pos:0 ~len) of_sexp
          | Error _ -> Error "unreadable frame"
        in
        let q = frame Wire.request_of_sexp in
        let p = frame Wire.response_of_sexp in
        if check && (q <> Ok reqs.(i) || p <> Ok resps.(i)) then fail_check "wire round trip" 1
      done
    in
    decode_all true;
    let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
    let wn = Wire.writer null in
    let reps = max 1 (20_000 / n) in
    let (), enc =
      time_ms (fun () ->
          for _ = 1 to reps do
            Array.iteri (fun i r -> Wire.write_request wn r; Wire.write_response wn resps.(i)) reqs
          done)
    in
    let (), dec = time_ms (fun () -> for _ = 1 to reps do decode_all false done) in
    Unix.close null;
    Unix.close fd;
    let per = float_of_int (reps * n) in
    metric "wire.req_bytes" "bytes" (float_of_int !req_bytes /. float_of_int n);
    metric "wire.resp_bytes" "bytes" (float_of_int !resp_bytes /. float_of_int n);
    metric "wire.encode_us" "us" (enc *. 1000. /. per);
    metric "wire.decode_us" "us" (dec *. 1000. /. per)
  end

let gc_counts () =
  let minor_words, _, _ = Gc.counters () in
  (minor_words, (Gc.quick_stat ()).Gc.minor_collections)

let gc_metrics ~ops (w0, c0) =
  let w1, c1 = gc_counts () in
  let ops = float_of_int (max 1 ops) in
  metric "gc.minor_words_per_op" "words" ((w1 -. w0) /. ops);
  metric "gc.minor_collections_per_op" "count" (float_of_int (c1 - c0) /. ops)

(* ------------------------------------------------------------------ *)
(* serve_cold                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-layer timings of the traced run, by metric name. *)
let layer_acc : (string, float list) Hashtbl.t = Hashtbl.create 32

let acc key ms = Hashtbl.replace layer_acc key (ms :: Option.value ~default:[] (Hashtbl.find_opt layer_acc key))

let timed ?key name f =
  if not !Spans.enabled then f ()
  else
    Spans.span name (fun () ->
        let r, ms = time_ms f in
        Option.iter (fun k -> acc k ms) key;
        r)

let keep_ratio = ref []

(* The query pipeline replayed call by call, the same public calls in
   the same order as [Query.eval], so each layer gets its own span. *)
let replay_pipeline q =
  let key ~only_n n k = if n = only_n then Some k else None in
  match q with
  | Query.Ra { n; adv } ->
    let a = Query.adversary ~n adv in
    let task = timed ?key:(key ~only_n:4 n "ra.filter_ms") "ra.of_adversary" (fun () -> Ra.of_adversary a) in
    let c = Affine_task.complex task in
    if n = 4 then
      keep_ratio :=
        (float_of_int (Complex.facet_count c) /. float_of_int (Complex.facet_count (Chr.standard_iterated ~m:2 ~n)))
        :: !keep_ratio;
    timed ?key:(key ~only_n:4 n "complex.closure_ms") "complex.closure" (fun () ->
        ignore (Complex.simplex_count c);
        ignore (Complex.euler_characteristic c));
    ignore (timed ?key:(key ~only_n:4 n "geometry.volume_ms") "geometry.total_volume" (fun () -> Geometry.total_volume c));
    ignore (timed ?key:(key ~only_n:4 n "link.ms") "link.is_link_connected" (fun () -> Link.is_link_connected c));
    timed ?key:(key ~only_n:4 n "affine_task.delta_ms") "affine_task.delta" (fun () ->
        List.iter (fun p -> ignore (Affine_task.delta task p)) (Pset.nonempty_subsets (Pset.full n)))
  | Query.Chr { n; m } ->
    let c = timed ~key:"chr.iterate_ms" "chr.iterate" (fun () -> Chr.iterate m (Chr.standard n)) in
    timed "complex.closure" (fun () ->
        ignore (Complex.simplex_count c);
        ignore (Complex.euler_characteristic c))
  | Query.Critical { n; adv } ->
    let a = Query.adversary ~n adv in
    let alpha = Agreement.of_adversary a in
    let chr1 = Chr.subdivide (Chr.standard n) in
    ignore (timed ?key:(key ~only_n:3 n "critical.ms") "critical.all_critical" (fun () -> Critical.all_critical alpha chr1))
  | Query.Setcon { n; adv } ->
    let a = Query.adversary ~n adv in
    ignore (timed ?key:(key ~only_n:3 n "setcon.ms") "setcon.setcon" (fun () -> Setcon.setcon a));
    ignore (timed ?key:(key ~only_n:3 n "hitting.csize_ms") "hitting.csize" (fun () -> Hitting.csize (Adversary.live_sets a)))
  | Query.Fairness { n; adv } ->
    let a = Query.adversary ~n adv in
    timed ?key:(key ~only_n:3 n "fairness.ms") "fairness.is_fair" (fun () ->
        if not (Fairness.is_fair a) then ignore (Fairness.violations a))
  | Query.Explore _ -> ()

(* Connection [c] takes the next query of the shared seeded sequence. *)
let cold_load ~srv ~seed ~seconds ~trace =
  let g = Inputs.cold ~seed in
  let lock = Mutex.create () in
  let served = Array.make conns [] in
  let pos = ref 0 in
  let next _ =
    Mutex.lock lock;
    let q = Inputs.cold_next g and i = !pos in
    incr pos;
    Mutex.unlock lock;
    Some (q, q, i / Inputs.cold_cycle_length land 1 = 1)
  in
  let accept c q ~req payload source =
    served.(c) <- { query = q; payload; req } :: served.(c);
    match source with
    | Wire.Computed -> Load.Done
    | s -> Load.Failed ("cold query answered from " ^ Wire.source_to_string s)
  in
  let r, cpu, rss = drive_server srv ~seconds ~trace ~next ~accept in
  let served = Array.concat (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) served)) in
  Array.sort (fun a b -> compare a.req b.req) served;
  (r, cpu, rss, served)

(* The traced analysis of a cold run, in-process after the server has
   stopped: the served queries go through a scheduler of their own from
   cold caches (its payloads are the output check, and submit time
   minus replayed eval time is the queue wait), then the pipeline is
   replayed call by call from cold caches again. *)
let cold_layers ~dir served =
  Cache.clear_all ();
  let sched = Scheduler.create ~store:(Store.open_dir (Filename.concat dir "trace-store")) () in
  let submit_ms = Array.make (Array.length served) 0. in
  let bad = Atomic.make 0 in
  let gc0 = gc_counts () in
  let worker c () =
    Array.iteri
      (fun i s ->
        if i mod conns = c then begin
          let r, ms = time_ms (fun () -> Scheduler.submit sched s.query) in
          submit_ms.(i) <- ms;
          match r with Ok o when o.Scheduler.payload = s.payload -> () | _ -> Atomic.incr bad
        end)
      served
  in
  List.iter Thread.join (List.init conns (fun c -> Thread.create (worker c) ()));
  gc_metrics ~ops:(Array.length served) gc0;
  Scheduler.shutdown sched;
  fail_check "payload" (Atomic.get bad);
  Cache.clear_all ();
  let pdir = Filename.concat dir "put-store" in
  let store = Store.open_dir pdir in
  let waits =
    Array.mapi
      (fun i s ->
        let ep = Query.endpoint s.query in
        let (), ms = time_ms (fun () -> Spans.span ~req:s.req ("query.eval." ^ ep) (fun () -> replay_pipeline s.query)) in
        acc ("query.eval_ms." ^ ep) ms;
        timed ~key:"store.put_ms" "store.put" (fun () ->
            Store.put store ~digest:(Digest.of_query s.query) ~query:(Query.to_sexp s.query) ~payload:s.payload);
        submit_ms.(i) -. ms)
      served
  in
  let bytes = Array.fold_left (fun t f -> t + (Unix.stat (Filename.concat pdir f)).Unix.st_size) 0 (Sys.readdir pdir) in
  metric "store.bytes_per_put" "bytes" (float_of_int bytes /. float_of_int (max 1 (Array.length served)));
  metric "scheduler.queue_wait_ms" "ms" (mean (Array.to_list waits));
  metric "ra.keep_ratio" "ratio" (mean !keep_ratio);
  replayed_ops := Some (Array.length served);
  wire_metrics ~dir (Array.map (fun s -> (s.query, s.payload)) served)

let serve_cold ~cli ~dir ~seed ~seconds ~trace =
  let srv, setup_s =
    set_up_server (fun i ->
        ignore (Inputs.cold ~seed);
        Server.spawn ~cli ~dir:(Filename.concat dir (Printf.sprintf "cold-%d" i)))
  in
  let before = Server.stats srv in
  let r, cpu, rss, served = cold_load ~srv ~seed ~seconds ~trace in
  let after = Server.stats srv in
  stop_server srv;
  if not trace then begin
    end_to_end ~setup_s ~r ~cpu_s:cpu ~rss_mb:rss;
    (* every served payload against one-shot [Query.eval], untimed *)
    Parallel.set_default_domains nproc;
    fail_check "payload" (Array.fold_left (fun bad s -> if Query.eval s.query = s.payload then bad else bad + 1) 0 served)
  end
  else begin
    count_load r;
    report_overhead ();
    scheduler_metrics ~before ~after;
    cold_layers ~dir served
  end

(* ------------------------------------------------------------------ *)
(* serve_hot                                                          *)
(* ------------------------------------------------------------------ *)

let serve_hot ~cli ~dir ~seed ~seconds ~trace =
  let keys = Inputs.hot_keys ~seed in
  (* the expected bytes, from one-shot [Query.eval], before any timing *)
  let expected = Array.map Query.eval keys in
  let warm srv =
    Client.with_connection ~timeout_s:60. srv.Server.addr (fun cl ->
        Array.iteri (fun k q -> if fst (Client.query cl q) <> expected.(k) then fail_check "warm payload" 1) keys)
  in
  let srv, setup_s =
    set_up_server (fun i ->
        let srv = Server.spawn ~cli ~dir:(Filename.concat dir (Printf.sprintf "hot-%d" i)) in
        warm srv;
        srv)
  in
  let nkeys = Array.length keys in
  let streams = Array.init conns (fun c -> Inputs.hot_stream ~seed ~conn:c ~keys:nkeys) in
  let sent = Array.make conns 0 in
  let next c =
    let k = streams.(c) () in
    sent.(c) <- sent.(c) + 1;
    Some (keys.(k), k, sent.(c) land 1 = 0)
  in
  let accept _ k ~req:_ payload source =
    match source with
    | Wire.Memory when String.equal payload expected.(k) -> Load.Done
    | Wire.Memory -> Load.Failed "payload differs from one-shot Query.eval"
    | s -> Load.Failed ("hot key answered from " ^ Wire.source_to_string s)
  in
  let before = Server.stats srv in
  let r, cpu, rss = drive_server srv ~seconds ~trace ~next ~accept in
  let after = Server.stats srv in
  stop_server srv;
  if not trace then
    end_to_end ~setup_s ~r ~cpu_s:cpu ~rss_mb:rss
  else begin
    count_load r;
    report_overhead ();
    scheduler_metrics ~before ~after;
    (* the same hits submitted in-process: what the listener and the
       wire add on top of the scheduler *)
    let sched = Scheduler.create () in
    Array.iter (fun q -> ignore (Scheduler.submit sched q)) keys;
    let next = Inputs.hot_stream ~seed ~conn:conns ~keys:nkeys in
    let n = 200_000 in
    let lat = Array.make n 0. in
    let gc0 = gc_counts () in
    for i = 0 to n - 1 do
      let q = keys.(next ()) in
      let t0 = Clock.now_ns () in
      ignore (Scheduler.submit sched q);
      lat.(i) <- Int64.to_float (Int64.sub (Clock.now_ns ()) t0) *. 1e-3
    done;
    gc_metrics ~ops:n gc0;
    Scheduler.shutdown sched;
    let rtt_us = Stats.median (Array.of_list (Spans.durations "client.ra" @ Spans.durations "client.critical"
                                              @ Spans.durations "client.setcon" @ Spans.durations "client.fairness"
                                              @ Spans.durations "client.chr")) *. 1000. in
    metric "listener.rtt_overhead_us" "us" (rtt_us -. Stats.median lat);
    wire_metrics ~dir (Array.init 20_000 (fun _ -> let k = next () in (keys.(k), expected.(k))))
  end

(* ------------------------------------------------------------------ *)
(* decide                                                             *)
(* ------------------------------------------------------------------ *)

let ra_protocol live task =
  let adv = Adversary.make ~n:3 (List.map Pset.of_list live) in
  let protocol =
    timed ~key:"affine_task.apply_ms" "affine_task.apply" (fun () ->
        Affine_task.apply (Ra.of_adversary adv) task.Task.inputs)
  in
  (adv, protocol)

let certify = ref []
let explore_runs = ref 0 and explore_pruned = ref 0 and explore_truncated = ref 0
let explore_ms = ref 0. and explore_words = ref 0. and explorations = ref 0

let solve ~protocol ~task =
  let t0 = Clock.now_s () in
  let v = Spans.span "solver.solve" (fun () -> Solver.solve ~protocol ~task) in
  let ms = Clock.ms_since t0 in
  if !Spans.enabled then
    acc (match v with Solver.Solvable _ -> "solver.solve_ms.solvable" | Solver.Unsolvable -> "solver.solve_ms.unsolvable") ms;
  v

let explored f expect =
  let w0, _ = gc_counts () in
  let t0 = Clock.now_s () in
  let runs, pruned, truncated, third = Spans.span "explore.run" f in
  explore_ms := !explore_ms +. Clock.ms_since t0;
  explore_words := !explore_words +. (fst (gc_counts ()) -. w0);
  incr explorations;
  explore_runs := !explore_runs + runs;
  explore_pruned := !explore_pruned + pruned;
  explore_truncated := !explore_truncated + truncated;
  if (runs, pruned, third) = expect then Load.Done
  else Load.Failed (Printf.sprintf "exploration counts %d/%d/%d" runs pruned third)

let decide_one = function
  | Inputs.Setcon_unsat live ->
    let a = Adversary.make ~n:3 (List.map Pset.of_list live) in
    let task = Set_consensus.task_fixed ~n:3 ~k:(Setcon.setcon a - 1) ~inputs:[ 0; 1; 2 ] in
    let _, protocol = ra_protocol live task in
    (match solve ~protocol ~task with
    | Solver.Unsolvable -> Load.Done
    | Solver.Solvable _ -> Load.Failed "set consensus below setcon solved")
  | Inputs.Setcon_mu live ->
    let a = Adversary.make ~n:3 (List.map Pset.of_list live) in
    let task = Set_consensus.task_fixed ~n:3 ~k:(Setcon.setcon a) ~inputs:[ 0; 1; 2 ] in
    let adv, protocol = ra_protocol live task in
    let alpha = Agreement.of_adversary adv in
    let m = timed ~key:"mu_map.build_ms" "mu_map.set_consensus_map" (fun () -> Mu_map.set_consensus_map ~alpha ~protocol) in
    if timed ~key:"solver.check_map_ms" "solver.check_map" (fun () -> Solver.check_map ~protocol ~task m) then Load.Done
    else Load.Failed "µ-map not certified at k = setcon"
  | Inputs.Approx { n; ell; range } ->
    let task = Approximate_agreement.task ~n ~range in
    let protocol =
      timed ~key:"affine_task.apply_ms" "affine_task.apply" (fun () ->
          Affine_task.apply (Affine_task.full_chr ~n ~ell) task.Task.inputs)
    in
    let solvable =
      match solve ~protocol ~task with
      | Solver.Solvable m ->
        (* certified after the timed phase; the protocol is rebuilt then,
           so the run does not hold every complex it decided on *)
        certify := (n, ell, range, m) :: !certify;
        true
      | Solver.Unsolvable -> false
    in
    if solvable = Inputs.approx_solvable ~n ~ell ~range then Load.Done
    else Load.Failed (Printf.sprintf "approximate agreement n=%d ell=%d range=%d: solvable=%b" n ell range solvable)
  | Inputs.Explore_is ->
    explored
      (fun () ->
        let st, parts = Harness.explore_immediate_snapshot ~domains:nproc ~n:3 () in
        (st.Explore.runs, st.Explore.pruned, st.Explore.truncated, List.length parts))
      (1522, 1338, 13)
  | Inputs.Explore_alg1 ->
    explored
      (fun () ->
        let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
        let st = Harness.explore_algorithm1 ~domains:nproc ~alpha ~participants:(Pset.full 2) () in
        (st.Explore.runs, st.Explore.pruned, st.Explore.truncated, st.Explore.crash_patterns))
      (4825, 14762, 3)

(* One set-up of decide: the instance generator, then, from cold
   caches, the R_A protocol complex of set consensus at n=3 for
   [setup_advs] seeded fair adversaries ([Ra.of_adversary] +
   [Affine_task.apply]), the first work a batch of decisions does. *)
let setup_advs = 24

let decide_setup ~seed =
  Cache.clear_all ();
  let g = Inputs.decide ~seed in
  let inputs = (Set_consensus.task_fixed ~n:3 ~k:1 ~inputs:[ 0; 1; 2 ]).Task.inputs in
  List.iter
    (fun live -> ignore (Affine_task.apply (Ra.of_adversary (Adversary.make ~n:3 (List.map Pset.of_list live))) inputs))
    (Inputs.decide_setup_adversaries g setup_advs);
  g

let decide ~seed ~seconds ~trace =
  let enabled = !Spans.enabled in
  Spans.enabled := false;
  let setups = List.init setups (fun _ -> time_ms (fun () -> decide_setup ~seed)) in
  Spans.enabled := enabled;
  let setup_s = Stats.median (Array.of_list (List.map snd setups)) /. 1000. in
  let g = fst (List.nth setups (List.length setups - 1)) in
  let op _ = Spans.span "decide.op" (fun () -> decide_one (Inputs.decide_next g)) in
  let certified () =
    let certified (n, ell, range, m) =
      let task = Approximate_agreement.task ~n ~range in
      Solver.check_map ~protocol:(Affine_task.apply (Affine_task.full_chr ~n ~ell) task.Task.inputs) ~task m
    in
    let bad = List.length (List.filter (fun c -> not (certified c)) !certify) in
    certify := [];
    fail_check "solvable map certified" bad
  in
  if not trace then begin
    let cpu0 = Procinfo.cpu_s "self" in
    let r = Load.closed_loop ~conns:1 ~seconds op in
    let cpu = Procinfo.cpu_s "self" -. cpu0 in
    end_to_end ~setup_s ~r ~cpu_s:cpu ~rss_mb:(Procinfo.peak_rss_mb "self");
    certified ()
  end
  else begin
    let k = ref 0 in
    let traced_op c =
      let traced = !k / Inputs.decide_cycle_length mod 2 = 1 in
      incr k;
      Spans.enabled := traced;
      let v, ms = time_ms (fun () -> op c) in
      account c ~traced ms;
      v
    in
    let caches () = List.map (fun (n, s) -> (n, (s.Cache.hits, s.Cache.misses, s.Cache.evictions))) (Cache.all_stats ()) in
    let caches0 = caches () and gc0 = gc_counts () in
    let r = Load.closed_loop ~conns:1 ~seconds traced_op in
    Spans.enabled := false;
    gc_metrics ~ops:r.attempted gc0;
    cache_metrics ~before:caches0 ~after:(caches ());
    count_load r;
    report_overhead ();
    certified ();
    let per = float_of_int (max 1 !explorations) in
    metric "explore.runs" "count" (float_of_int !explore_runs /. per);
    metric "explore.pruned" "count" (float_of_int !explore_pruned /. per);
    metric "explore.truncated" "count" (float_of_int !explore_truncated /. per);
    metric "explore.runs_per_s" "1/s" (float_of_int !explore_runs /. Float.max 1e-9 (!explore_ms /. 1000.));
    metric "explore.minor_words_per_run" "words" (!explore_words /. float_of_int (max 1 !explore_runs))
  end

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_cold | serve_hot | decide");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the fact_cli.exe to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH";
  let trace = !trace = 1 in
  let tag = Printf.sprintf "%s-%d-trace%d-%d" !workload !seed (Bool.to_int trace) (Unix.getpid ()) in
  let out = ".bench_run" in
  let dir = Filename.concat out tag in
  Server.mkdir_p dir;
  let serving = String.starts_with ~prefix:"serve" !workload in
  if serving && not (Sys.file_exists !cli) then (prerr_endline "main.exe: --cli must name fact_cli.exe"; exit 2);
  Spans.enabled := trace;
  let steal0, total0 = Procinfo.steal_ticks () in
  (match !workload with
  | "serve_cold" -> serve_cold ~cli:!cli ~dir ~seed:!seed ~seconds:!seconds ~trace
  | "serve_hot" -> serve_hot ~cli:!cli ~dir ~seed:!seed ~seconds:!seconds ~trace
  | "decide" -> decide ~seed:!seed ~seconds:!seconds ~trace
  | w -> prerr_endline ("main.exe: unknown workload " ^ w); exit 2);
  (* time other guests took from this machine's CPUs during the run: a
     run with a high share reads slow for reasons outside the program *)
  let steal1, total1 = Procinfo.steal_ticks () in
  note "host_steal_pct" (Printf.sprintf "%.1f" (100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))));
  if trace then begin
    List.iter (fun (k, l) -> metric k "ms" (mean l)) (Hashtbl.fold (fun k l a -> (k, l) :: a) layer_acc []);
    List.iter
      (fun (layer, ms) -> metric ("self_ms." ^ layer) "ms/op" (ms /. float_of_int (max 1 (span_ops layer))))
      (Spans.self_ms ());
    metric "parallel.domain_spawns" "count" (float_of_int (Parallel.domain_spawns ()));
    Spans.write (Filename.concat out (Printf.sprintf "trace-%s.jsonl" tag))
  end
  else report_ok_frac ();
  let env =
    [
      ("workload", !workload); ("seed", string_of_int !seed); ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", string_of_bool trace); ("nproc", string_of_int nproc); ("ocaml", Sys.ocaml_version);
      ("domains", string_of_int default_domains); ("connections", string_of_int (if serving then conns else 1));
      ("store_fs", Procinfo.fs_type dir);
      ("setup_sockets_left_behind", string_of_int !setup_sockets_left);
    ]
    @ List.rev run.notes
  in
  let env_json = String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) env) in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" run.correct
      (max 1 run.attempted) run.failed (json_metrics run.metrics)
  in
  let oc = open_out (Filename.concat out ("result-" ^ tag ^ ".json")) in
  Printf.fprintf oc "{\"env\": {%s}, \"result\": %s}\n" env_json result;
  close_out oc;
  rm_rf dir;
  Printf.printf "env: {%s}\n%s\n%!" env_json result;
  exit (if run.correct then 0 else 1)
