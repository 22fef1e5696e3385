(** Resource readings from [/proc]. [pid] is a process id or ["self"]. *)

val cpu_s : string -> float
(** User plus system CPU time so far, in seconds (10 ms resolution). *)

val peak_rss_mb : string -> float
(** Peak resident set size ([VmHWM]), in MiB. *)

val fs_type : string -> string
(** The filesystem type of the mount holding a directory. *)

val steal_ticks : unit -> int * int
(** Machine-wide CPU time stolen by the hypervisor and CPU time in all
    states, in clock ticks since boot ([/proc/stat]). *)
