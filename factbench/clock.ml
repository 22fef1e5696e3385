(* Monotonic nanosecond clock: [Unix.gettimeofday] only resolves
   microseconds, too coarse for 40 us round trips. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let ms_since t0 = (now_s () -. t0) *. 1000.
