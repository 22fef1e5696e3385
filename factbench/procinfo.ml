let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Linux reports process times in clock ticks of 1/100 s. *)
let ticks_per_s = 100.

let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

let status_kb pid key =
  read_file (Printf.sprintf "/proc/%s/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ k; v ] when k = key ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> Option.value ~default:0

let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.

let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let under m = m = "/" || path = m || String.starts_with ~prefix:(m ^ "/") path in
  read_file "/proc/self/mounts"
  |> String.split_on_char '\n'
  |> List.fold_left
       (fun (best, ty) line ->
         match String.split_on_char ' ' line with
         | _ :: mnt :: fstype :: _ when under mnt && String.length mnt >= String.length best ->
           (mnt, fstype)
         | _ -> (best, ty))
       ("", "unknown")
  |> snd

let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: fields ->
    let f = List.filter_map int_of_string_opt fields in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  | _ -> (0, 0)
