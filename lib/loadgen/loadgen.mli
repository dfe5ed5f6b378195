(** Built-in load generator for the serving layer: a memtier/YCSB-style
    client driving {!Privagic_server} over real sockets.

    One thread, [clients] concurrent non-blocking connections, and two
    load models:
    - {b closed loop} ([rate = 0]): every connection keeps [depth]
      requests outstanding (1 = the classic one-at-a-time closed loop;
      higher pipelines the connection); throughput is whatever the
      server sustains.
    - {b open loop} ([rate > 0]): requests are scheduled at the fixed
      aggregate rate and sent when due, regardless of outstanding
      responses (connections pipeline; the server preserves per-
      connection ordering). Latency is measured from the {e scheduled}
      send time, so queueing delay under overload is visible — the
      coordinated-omission-free convention.

    [SERVER_BUSY] answers (a shedding server above its high-water mark)
    are counted and the op is retried without rescheduling, so shed
    requests pay their full latency.

    Mixes beyond the read/update dial: [Ycsb_e] is the standard
    scan-heavy mix (95% [scan], 5% insert) and [Ycsb_f] the
    read-modify-write mix (50% read, 50% RMW). An RMW is driven as the
    real two-leg protocol — [getv] for the version, then a [cas] guarded
    on it — and both legs share the {e original} schedule time, so the
    latency recorded for the op is the full read-modify-write, not the
    second leg alone. *)

module Metrics = Privagic_obs.Metrics

(** [Custom] is the read/update dial ([read_prop]); the YCSB presets
    override it. *)
type mix = Custom | Ycsb_e | Ycsb_f

val mix_name : mix -> string

type config = {
  host : string;
  port : int;
  clients : int;
  ops : int;              (** measured operations (excludes preload) *)
  rate : float;           (** aggregate ops/s; 0 = closed loop *)
  depth : int;            (** closed-loop in-flight requests per connection *)
  record_count : int;     (** key space; also the preload size *)
  vsize : int;            (** value bytes per set *)
  seed : int;
  read_prop : float;      (** reads vs sets in the [Custom] mix *)
  mix : mix;
  scan_len : int;         (** max requested scan length ([Ycsb_e]) *)
  preload : bool;         (** set keys 0..record_count-1 first, unmeasured *)
  shutdown : bool;        (** send [shutdown] when done (drains the server) *)
}

val default_config : config

type result = {
  r_ops_ok : int;         (** answered operations (an RMW counts once) *)
  r_busy : int;           (** SERVER_BUSY retries *)
  r_errors : int;         (** CLIENT_ERROR / malformed responses *)
  r_hits : int;
  r_misses : int;
  r_scans : int;          (** completed scan operations *)
  r_scan_items : int;     (** items returned across all scans *)
  r_rmw_conflicts : int;  (** RMW second legs that lost the CAS race *)
  r_preload_ops : int;
  r_wall_seconds : float; (** measured phase only *)
  r_throughput_kops : float;
  r_target_rate : float;  (** 0 in closed loop *)
  r_latency : Metrics.pctiles;  (** microseconds *)
}

(** Run the workload. @raise Failure when no connection can be
    established or the server dies mid-run. *)
val run : config -> result

(** Write the configuration and the result as one JSON object
    ([loadgen --out]). *)
val write_json : path:string -> config -> result -> unit

val pp_result : Format.formatter -> result -> unit
