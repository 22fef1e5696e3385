open Fact_serve

type t = { pid : int; addr : Listener.addr; sock : string; dir : string }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let spawn ~cli ~dir =
  mkdir_p dir;
  (* relative, so the path stays under the 108-byte sun_path limit
     wherever the checkout lives *)
  let sock = Filename.concat dir "s.sock" in
  let store = Filename.concat dir "store" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "server.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--addr"; "unix:" ^ sock; "--store"; store |] null log log
  in
  Unix.close log;
  Unix.close null;
  let t = { pid; addr = Listener.Unix_sock sock; sock; dir } in
  let give_up = Clock.now_s () +. 30. in
  let rec wait_ready () =
    match Client.with_connection ~timeout_s:5. t.addr Client.ping with
    | () -> t
    | exception Fact_resilience.Fact_error.Error _ -> (
      match exited pid with
      | Some st -> failwith ("fact serve " ^ status_text st ^ " before it answered")
      | None ->
        if Clock.now_s () > give_up then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "fact serve did not answer within 30 s"
        end;
        Thread.delay 0.005;
        wait_ready ())
  in
  wait_ready ()

let pid_s t = string_of_int t.pid

let stats t = Client.with_connection ~timeout_s:30. t.addr Client.stats

let stop t =
  (try Client.with_connection ~timeout_s:10. t.addr Client.shutdown
   with Fact_resilience.Fact_error.Error _ -> ());
  let give_up = Clock.now_s () +. 20. in
  let rec reap () =
    match exited t.pid with
    | Some st -> st
    | None when Clock.now_s () > give_up ->
      Unix.kill t.pid Sys.sigkill;
      snd (Unix.waitpid [] t.pid)
    | None ->
      Thread.delay 0.005;
      reap ()
  in
  let st = reap () in
  (status_text st, st = Unix.WEXITED 0, Sys.file_exists t.sock)
