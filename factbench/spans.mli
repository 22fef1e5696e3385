(** In-memory spans for the traced run, recorded by the benchmark
    around its calls into the library and written out at the end. *)

val enabled : bool ref
(** Off by default: untraced runs record nothing. *)

val record : name:string -> req:int -> start_ns:int64 -> end_ns:int64 -> unit
(** A root span measured by the caller. Thread-safe. *)

val span : ?req:int -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] as a child of the innermost open span.
    Nesting is tracked globally: call it from one thread at a time. *)

val self_ms : unit -> (string * float) list
(** Self time per layer: each span's duration minus its children's,
    summed by layer. A span's layer is its name up to the first dot
    ([ra.of_adversary] is in layer [ra]). *)

val durations : string -> float list
(** Durations in ms of the spans with this name, in recording order. *)

val write : string -> unit
(** Write every span as one JSON object per line. *)
