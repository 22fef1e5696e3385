(** Closed-loop load: each connection sends its next operation only
    after the previous one completed. *)

type verdict =
  | Done  (** completed with a correct-looking reply *)
  | Failed of string  (** refused, transport error or wrong reply *)
  | Exhausted  (** no more inputs for this connection *)

type result = {
  attempted : int;  (** operations started, failed ones included *)
  failed : int;
  failures : string list;  (** the first few failure reasons *)
  latencies_ms : float array;
      (** one per attempted operation; a failed one counts as
          [infinity], so it misses any latency limit *)
  ends_s : float array;
      (** when each of them completed, in seconds from the start *)
  elapsed_s : float;  (** from start to the last completed operation *)
}

val closed_loop :
  conns:int -> seconds:float -> (int -> verdict) -> result
(** [closed_loop ~conns ~seconds op] runs [op c] back to back on each of
    [conns] connections [c] (one thread each; the calling thread when
    [conns = 1]) until [seconds] have passed. An exception raised by
    [op] is a failed operation, never a dropped one. *)
