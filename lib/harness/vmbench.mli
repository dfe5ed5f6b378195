(** Walk-vs-image VM benchmark ([privagic bench vm]): replays the Kv
    harness's YCSB-B-style protocol per (family × backend × engine)
    cell and reports raw interpreter speed — executed PIR instructions
    per wall-clock second. Virtual-time results are engine-invariant
    (the differential tests check that), so steps/sec is the one metric
    where the engines differ.

    Cells: {hashmap, treemap, memcached} × {sim, parallel} ×
    {walk, image}. Each cell runs one warm-up pass and then three
    measured passes; the record keeps the fastest pass and the min/max
    steps/s of the measured ones, the image-over-walk ratio of the sim
    hashmap cell ([speedup_sim_hashmap], the CI engine gate) and an
    [env] block. *)

(** Run every cell, print a table and write the JSON record (default
    BENCH_vm.json). [quick] shrinks record/operation counts. *)
val run : ?quick:bool -> ?path:string -> unit -> unit
