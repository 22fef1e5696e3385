(** Order statistics over latency samples. *)

val sorted : float array -> float array
(** A sorted copy. *)

val percentile : float array -> float -> float
(** [percentile sorted p], [0 <= p <= 100], linear interpolation
    between the closest ranks. 0 on an empty array. An infinite sample
    (a failed operation) yields an infinite percentile once the rank
    reaches it. *)

val median : float array -> float

val beyond : n:int -> int -> int
(** [beyond ~n p100]: how many of [n] samples lie past the percentile
    [p100 / 100] (nearest-rank). *)

val tail : float array -> (float * float * int) option
(** [tail sorted]: the highest of p99.99, p99.9, p99, p90 and p50 that
    has at least 10 samples beyond it, as [(p, value, beyond)]; [None]
    when fewer than 20 samples exist. *)

val windows : n:int -> int
(** How many equal time windows a run of [n] samples is cut into: as
    many as keep at least 1000 samples past p99 in each, at most 5. *)

val windowed :
  elapsed_s:float -> ends:float array -> lat:float array -> k:int ->
  (seconds:float -> float array -> float) -> float
(** [windowed ~elapsed_s ~ends ~lat ~k f]: cut the run into [k] equal
    time windows by completion time [ends], apply [f] to each window's
    sorted latencies, and take the median. A burst of interference in
    one window then moves the result by at most one rank. *)
