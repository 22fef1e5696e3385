(** A [fact serve] child process with an empty store under [dir]. *)

type t = private { pid : int; addr : Fact_serve.Listener.addr; sock : string; dir : string }

val mkdir_p : string -> unit

val spawn : cli:string -> dir:string -> t
(** Starts [cli serve] on a Unix socket in [dir] and returns once it
    answers a ping. Raises [Failure] if it dies or stays silent for
    30 s. *)

val pid_s : t -> string
(** The pid, as {!Procinfo} takes it. *)

val stats : t -> string
(** The server's [stats] text. *)

val stop : t -> string * bool * bool
(** Asks the server to shut down and reaps it (SIGKILL after 20 s).
    Returns its exit status, whether that was exit code 0, and whether
    its socket file is still there. *)
