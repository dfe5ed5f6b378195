(** Observability benchmark ([privagic bench obs]): per-lane stall
    attribution of the Kv YCSB-B workloads on the real-parallel backend
    ({memcached, hashmap, hashmap-2color} at 2 lanes, or 2 and 4 lanes),
    plus the hot-path overhead of the lib/obs instrumentation itself
    (sim hashmap image replay, event ring attached vs detached, over
    interleaved pass pairs, each pass rated on process CPU seconds). The
    record carries [min_coverage] and [overhead_frac] (the median pair's
    overhead; the CI gates: >= 0.95 and <= 0.05), the pair count, the
    quartiles of the per-pair overhead, and an [env] block. *)

(** Run both measurements with obs forced on, print the stall table and
    write the JSON record (default BENCH_obs.json). [quick] shrinks
    record/operation counts and the lane list. *)
val run : ?quick:bool -> ?path:string -> unit -> unit
