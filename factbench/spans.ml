type span = { name : string; id : int; parent : int; req : int; start_ns : int64; end_ns : int64 }

let enabled = ref false
let lock = Mutex.create ()
let all : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let add s =
  Mutex.lock lock;
  all := s :: !all;
  Mutex.unlock lock

let record ~name ~req ~start_ns ~end_ns =
  if !enabled then add { name; id = fresh_id (); parent = 0; req; start_ns; end_ns }

let span ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Clock.now_ns () in
    let finish () =
      stack := List.tl !stack;
      add { name; id; parent; req; start_ns; end_ns = Clock.now_ns () }
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  Mutex.lock lock;
  let l = List.rev !all in
  Mutex.unlock lock;
  l

let ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-6

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let self_ms () =
  let l = spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent (ms s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    l;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let k = layer s.name in
      Hashtbl.replace by_layer k (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer k)))
    l;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [])

let durations name = List.filter_map (fun s -> if s.name = name then Some (ms s) else None) (spans ())

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.name s.id s.parent s.req s.start_ns s.end_ns)
    (spans ());
  close_out oc
