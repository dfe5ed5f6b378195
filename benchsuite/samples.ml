(* Raw latency samples and exact order statistics. Samples are kept as
   recorded, so a shift of a few microseconds moves every statistic by
   that much; nothing is bucketed. *)

(* Seconds on the system-wide monotonic clock, with nanosecond
   resolution; comparable between the program and client processes. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type t = { mutable v : float array; mutable n : int }

let create () = { v = Array.make 4096 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.v then t.v <- Array.append t.v (Array.make t.n 0.0);
  t.v.(t.n) <- x;
  t.n <- t.n + 1

let concat ts =
  let c = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add c t.v.(i) done) ts;
  c

let sorted t =
  let s = Array.sub t.v 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank [p]-quantile (p in (0, 1]) of sorted samples; 0.0 when
   empty. *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then 0.0 else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Interquartile mean of sorted samples: the mean of those between the
   first and the third quartile. Unlike the median it moves smoothly when
   the samples have two modes (a request that waited behind another one,
   or not). *)
let iqm s =
  let n = Array.length s in
  let lo = n / 4 and hi = n - (n / 4) in
  if hi <= lo then 0.0
  else begin
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. s.(i)
    done;
    !acc /. float_of_int (hi - lo)
  end

(* What a measured slice reports, by name. *)
let summarize ~reads ~writes ~late =
  let r = sorted reads and w = sorted writes in
  [ ("reads", float_of_int reads.n); ("read_iqm", iqm r); ("read_p99", quantile r 0.99);
    ("writes", float_of_int writes.n); ("write_iqm", iqm w); ("write_p99", quantile w 0.99);
    ("late_p99", quantile (sorted late) 0.99) ]
