(** The transaction benchmark ([bench txn] → BENCH_txn.json): the
    scan-heavy and read-modify-write YCSB mixes (E and F) driven by
    {!Privagic_loadgen} against an in-process memcached server on two
    simulator shards, plus a raw-socket phase of multi-op
    [txn … exec] transactions exercising commit and CAS-guard abort.

    Reported per mix: wall-clock throughput, answered ops, achieved vs
    target rate, latency percentiles, scan and RMW-conflict counts; for
    the txn phase: commits, aborts and transactions/s; and the server's
    own txn/scan counters for cross-checking (the CI smoke gate greps
    them). *)

type mix_cell = {
  tb_mix : string;
  tb_ops_ok : int;
  tb_wall_seconds : float;
  tb_throughput_kops : float;
  tb_latency_us : Privagic_telemetry.Metrics.pctiles;
  tb_scans : int;
  tb_scan_items : int;
  tb_rmw_conflicts : int;
  tb_busy : int;
  tb_errors : int;
}

type txn_phase = {
  tp_txns : int;           (** transactions sent *)
  tp_commits : int;        (** TXN replies *)
  tp_aborts : int;         (** TXN_ABORT replies (the seeded CAS misses) *)
  tp_wall_seconds : float;
  tp_txns_per_sec : float;
}

type t = {
  tb_records : int;
  tb_ops : int;
  tb_mixes : mix_cell list;
  tb_txn : txn_phase;
  (* the server's own view, for cross-checking the client counts *)
  tb_srv_txns : int;
  tb_srv_txn_commits : int;
  tb_srv_txn_aborts : int;
  tb_srv_cas_conflicts : int;
  tb_srv_scans : int;
  tb_srv_scan_items : int;
}

(** Run both mixes and the txn phase; print a summary and write the JSON
    record. @raise Invalid_argument when the program is rejected or the
    server misbehaves. *)
val run : ?quick:bool -> ?path:string -> unit -> t

val write_json : path:string -> quick:bool -> t -> unit
