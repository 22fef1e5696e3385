(** Seeded workload inputs. Everything here is a pure function of the
    seed: the same seed gives the same sequences byte for byte. *)

open Fact_serve

val render_query : Query.t -> string
(** The canonical wire rendering of a query. *)

(** {2 serve_cold} *)

type cold

val cold : seed:int -> cold

val cold_next : cold -> Query.t
(** The next query of the cold mix: [ra]/[critical]/[setcon]/[fairness]
    over random live-set adversaries at n=3 and n=4, plus [chr]. Never
    repeats a query, so every request misses the server's result
    cache. Not thread-safe. *)

val cold_cycle_length : int
(** Requests per cycle of the cold mix; each cycle has the same
    composition. *)

val cold_sequence : seed:int -> int -> Query.t list

(** {2 serve_hot} *)

val hot_keys : seed:int -> Query.t array
(** A small n=3 key set over all five endpoints, in Zipf rank order. *)

val hot_stream : seed:int -> conn:int -> keys:int -> unit -> int
(** Zipf(1)-distributed key indices for one connection. *)

val hot_sequence : seed:int -> conn:int -> keys:int -> int -> int list

(** {2 decide} *)

type instance =
  | Setcon_unsat of int list list
      (** k = setcon - 1 set consensus on one R_A iteration, n=3:
          [Solver.solve] must answer unsolvable *)
  | Setcon_mu of int list list
      (** k = setcon: the µ-map must be certified by [Solver.check_map] *)
  | Approx of { n : int; ell : int; range : int }
      (** approximate agreement on [Chr^ell] *)
  | Explore_is  (** exhaustive one-shot IS exploration, n=3 *)
  | Explore_alg1  (** exhaustive Algorithm 1 exploration, n=2 *)

val render_instance : instance -> string

type decide

val decide_cycle_length : int
(** Instances per cycle of the mix; each cycle has the same composition. *)

val decide : seed:int -> decide
val decide_next : decide -> instance
val decide_sequence : seed:int -> int -> instance list

val decide_setup_adversaries : decide -> int -> int list list list
(** [decide_setup_adversaries g k]: [k] distinct fair n=3 live-set
    adversaries, drawn from a copy of the generator's seeded stream,
    whose protocol complexes the set-up builds. [g]'s own sequence of
    instances is unchanged. *)

val approx_solvable : n:int -> ell:int -> range:int -> bool
(** The expected verdict: [3^ell >= range] for two processes,
    [2^ell >= range] for three. *)
