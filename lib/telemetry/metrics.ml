(* Counters and log-scale histograms, snapshotted per run.

   A histogram has 64 power-of-two buckets: bucket [i] counts observations
   in [2^(i-1), 2^i) (bucket 0 holds everything below 1). Percentile
   estimates interpolate inside the bucket, which is accurate enough for
   latency distributions spanning decades of cycles. Registration is
   name-keyed and idempotent so call sites can look metrics up on the hot
   path without threading handles around. *)

type counter = { c_name : string; mutable count : int }

let nbuckets = 64

type histogram = {
  h_name : string;
  buckets : int array;
  mutable h_count : int;
  mutable sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable order : string list;       (* registration order, newest first *)
}

let create () =
  { counters = Hashtbl.create 16; histograms = Hashtbl.create 16; order = [] }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace t.counters name c;
    t.order <- name :: t.order;
    c

let incr ?(by = 1) c = c.count <- c.count + by

(* A histogram outside any registry, e.g. one per writer, read through
   [merge]. *)
let fresh_histogram name =
  {
    h_name = name;
    buckets = Array.make nbuckets 0;
    h_count = 0;
    sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = fresh_histogram name in
    Hashtbl.replace t.histograms name h;
    t.order <- name :: t.order;
    h

(* The sum of several histograms, as a new one named after the first. A
   source written concurrently contributes whatever its writer had
   published. *)
let merge hs =
  let m = fresh_histogram (match hs with h :: _ -> h.h_name | [] -> "") in
  List.iter
    (fun h ->
      Array.iteri (fun i c -> m.buckets.(i) <- m.buckets.(i) + c) h.buckets;
      m.h_count <- m.h_count + h.h_count;
      m.sum <- m.sum +. h.sum;
      m.h_min <- Float.min m.h_min h.h_min;
      m.h_max <- Float.max m.h_max h.h_max)
    hs;
  m

(* Bucket of value [v]: the exponent of its power-of-two magnitude. *)
let bucket_of v =
  if not (v >= 1.0) then 0
  else
    let _, e = Float.frexp v in
    (* v = m * 2^e, m in [0.5, 1) => 2^(e-1) <= v < 2^e *)
    min (nbuckets - 1) (max 0 e)

let observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.sum <- h.sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let mean h = if h.h_count = 0 then 0.0 else h.sum /. float_of_int h.h_count

(* The [p]-quantile (p in [0,1]), interpolated within its bucket and
   clamped to the observed min/max. *)
let percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let rank = p *. float_of_int h.h_count in
    let acc = ref 0.0 in
    let result = ref h.h_max in
    (try
       for i = 0 to nbuckets - 1 do
         let c = float_of_int h.buckets.(i) in
         if c > 0.0 then begin
           if !acc +. c >= rank then begin
             let lo = if i = 0 then 0.0 else Float.ldexp 1.0 (i - 1) in
             let hi = Float.ldexp 1.0 i in
             let frac = if c > 0.0 then (rank -. !acc) /. c else 0.0 in
             result := lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac));
             raise Exit
           end;
           acc := !acc +. c
         end
       done
     with Exit -> ());
    Float.max h.h_min (Float.min h.h_max !result)
  end

(* The standard latency-report quartet, for any duration-class metric:
   sinks (summary, server stats, BENCH json) all report the same points. *)
type pctiles = { n : int; p_mean : float; p50 : float; p95 : float;
                 p99 : float; p999 : float; p_max : float }

let pctiles h =
  {
    n = h.h_count;
    p_mean = mean h;
    p50 = percentile h 0.50;
    p95 = percentile h 0.95;
    p99 = percentile h 0.99;
    p999 = percentile h 0.999;
    p_max = (if h.h_count = 0 then 0.0 else h.h_max);
  }

let fold_counters t f acc =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> f acc c
      | None -> acc)
    acc (List.rev t.order)

let fold_histograms t f acc =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> f acc h
      | None -> acc)
    acc (List.rev t.order)

let pp fmt t =
  let open Format in
  fold_counters t
    (fun () c -> fprintf fmt "  %-32s %12d@." c.c_name c.count)
    ();
  fold_histograms t
    (fun () h ->
      if h.h_count = 0 then fprintf fmt "  %-32s (no samples)@." h.h_name
      else
        let p = pctiles h in
        fprintf fmt
          "  %-32s n=%-7d mean=%-10.0f p50=%-10.0f p95=%-10.0f p99=%-10.0f \
           p99.9=%-10.0f max=%-10.0f@."
          h.h_name p.n p.p_mean p.p50 p.p95 p.p99 p.p999 p.p_max)
    ()
