(** The TCP serving layer: a socket front-end that drives partitioned
    programs under real concurrent load (the paper's §8 evaluation shape
    — memcached behind memtier-style clients — realized over the
    simulator backend, one instance per shard).

    Architecture (DESIGN.md §8.14): the keyspace is hash-partitioned
    ([key mod shards]) across N single-writer shards. Each shard owns —
    exclusively — one execution backend instance (the caller builds one
    store per shard), its per-key table (versions, lengths, and the
    ordered index scans read), and an event loop on its own domain: nonblocking sockets,
    [Unix.select] readiness with self-pipe wakeups (no timeout
    polling), incremental parsing, and fully pipelined connections
    (many requests in flight per connection; responses flush strictly
    in arrival order). A shard's logic is a sans-IO [Core.t] that the
    loop feeds events and whose effects it carries out.

    There is no global store mutex. Gets, sets and single-shard
    transactions execute entirely inside one shard, under a per-shard
    latch that only the owner loop takes on the hot path. Cross-shard
    requests hop to the owning shard over a bounded inbox, and their
    responses come home through the connection owner's inbox; multi-shard
    transactions commit via two-phase commit under the participant
    latches (taken in ascending shard order), and scans merge the
    shards' published per-key tables without taking any latch. Same-key
    requests of one connection always land in the same shard FIFO, so
    per-key program order is preserved; a multi-shard transaction or
    scan waits for the connection's earlier requests before executing
    (connection barrier). All shards append commit deltas to one shared log, so
    replication keeps a single merged monotone sequence; each shard loop
    hosts the replication links whose handshake it read. *)


module Metrics = Privagic_obs.Metrics

(** What the server needs from an execution backend. Each shard owns
    one store; [st_call] is only invoked under that shard's latch. The
    buffer helpers address the backend's simulated unsafe memory. *)
type store = Core.store = {
  st_name : string;
  st_call :
    string -> Privagic_vm.Rvalue.t list -> (Privagic_vm.Rvalue.t, string) result;
  st_alloc : int -> int;
  st_write : int -> string -> unit;
  st_read : int -> int -> string;
  st_register_obs : Privagic_obs.Registry.t -> unit;
      (** register the backend's gauges (steps, externs, declassify
          counts) on the server's obs registry *)
  st_attach_ring : Privagic_obs.Ring.t -> unit;
      (** trace the backend into a virtual-clock ring (a traced
          server calls it once, at {!start}) *)
}

val store_of_pinterp : Privagic_vm.Pinterp.t -> store

(** Entry points a key-value protocol maps onto. *)
type bindings = Core.bindings = {
  b_family : string;
  b_set : string;
  b_get : string;
  b_del : string option;
  b_init : string option;  (** capacity-taking init entry, called by serve *)
  b_vcolor : string;
      (** color token of stored values on the replication wire: the
          enclave name the plan placed the store's globals in, or [U]
          for a plain (uncolored) plan. Frames with an enclave color are
          sealed by the shipper ({!Privagic_replication.Seal}). *)
}

(** Probe the plan's entry list for a known program family (the mc_,
    hm_, h2_, tm_, ll_ entry prefixes of the evaluation programs). *)
val bindings_of_plan : Privagic_partition.Plan.t -> bindings option

(** The replication value color of a plan (see {!bindings.b_vcolor}). *)
val value_color : Privagic_partition.Plan.t -> string

type policy = Core.policy = Block | Shed

type config = Core.config = {
  host : string;            (** default 127.0.0.1 *)
  port : int;               (** 0 picks an ephemeral port; see {!port} *)
  shards : int;             (** single-writer keyspace shards (event loops) *)
  queue_depth : int;        (** cross-shard inbox high-water mark; also the
                                local-batch shed threshold under [Shed] *)
  policy : policy;
  max_batch : int;          (** requests executed per latch hold *)
  vsize : int;              (** value-buffer size of the program *)
  trace : bool;
      (** record into per-writer rings (see {!rings}); default off *)
  repl_window : int;        (** in-flight deltas per replica (default 1024) *)
  repl_cluster : string;    (** sealing-key derivation secret *)
}

val default_config : config

type t

(** Bind, listen, and start the shard loops: one domain per shard and
    no other thread. Loop 0 also accepts, and hands connection [i] to
    shard [i mod shards]. [stores] must have exactly [cfg.shards]
    elements — shard [i] owns [stores.(i)] exclusively; the caller
    initializes each one (e.g. the family's init entry). The server is
    serving when [start] returns. [replica_of] starts it in the
    read-only replica role (the string is the primary's address, for
    display only — the caller runs the {!Privagic_replication.Replica}
    client with {!apply_delta} as its callback); {!promote} flips it to
    primary.
    @raise Failure when the socket cannot be bound. *)
val start : ?replica_of:string -> config -> bindings -> store array -> t
(** The bound stores must hold no keys yet: the transaction layer's
    per-key tables start empty and only advance through commit hooks,
    so keys pre-populated before [start] would be invisible to [scan],
    report version 0 via [getv], and fail the in-transaction del
    presence check. The known families' init entries
    all build empty tables. *)

(** {1 The loop over an IO record}

    A shard loop reaches the OS only through an [io] record, one
    indirect call per system call: [select] (readable, writable; a
    negative timeout waits for ever), nonblocking [read], [write],
    [accept] and [close], [pipe] (a self-pipe: read end, write end) and
    the [clock] (µs), failing as the [Unix] calls do. {!start} serves
    over [Unix]; test/test_sim.ml runs the loops over a simulated net. *)
type 'fd io = {
  select : 'fd list -> 'fd list -> float -> 'fd list * 'fd list;
  read : 'fd -> Bytes.t -> int -> int -> int;
  write : 'fd -> Bytes.t -> int -> int -> int;
  accept : 'fd -> 'fd;
  close : 'fd -> unit;
  pipe : unit -> 'fd * 'fd;
  clock : unit -> float;
}

(** The state {!start} builds, over [io] and its listening endpoint
    [listen], with nothing bound and no domain spawned: the caller runs
    loop [i] by calling {!iterate} [t i] until it returns false, each
    loop from one domain. *)
val create :
  ?replica_of:string -> 'fd io -> listen:'fd -> config -> bindings -> store array -> t

(** One pass of loop [i]: select, read and accept, settle the core,
    write, then the exit rule. False once the loop is over. *)
val iterate : t -> int -> bool

(** The shard cores, for inspection: only the loops step them. *)
val cores : t -> Core.t array

val port : t -> int

(** A traced server's rings (empty untraced): per shard, its VM's
    virtual-clock ring (tracks labelled [s<i>/...]) and its loop's
    wall-clock ring of request spans ([s<i>/srv]), which also holds the
    [repl_ship] spans of the replication links the loop hosts. Read
    them after {!wait}: the drain joins every writer. *)
val rings : t -> Privagic_obs.Ring.t list

(** Graceful drain: start it, as a [shutdown] verb does, then {!wait}.
    Loop 0 stops accepting; every loop answers every parsed request of
    a live connection, as no loop exits before every shard answered
    its own (DESIGN.md §8.14); each then flushes the log's tail to the
    replication links it hosts and exits once they acked it, or after
    a 5 s linger. The stores stay with the caller. Idempotent; call it
    from any thread but a shard loop. *)
val drain : t -> unit

(** Block until the drain (started by {!drain} or a [shutdown] verb)
    completes: join every shard loop. Any number of threads may wait. *)
val wait : t -> unit

val is_draining : t -> bool

type stats = {
  s_uptime : float;
  s_conns_accepted : int;
  s_conns_open : int;
  s_ops : int;              (** executed data-path requests (all verbs) *)
  s_gets : int;
  s_sets : int;
  s_dels : int;
  s_hits : int;
  s_shed : int;             (** requests answered SERVER_BUSY *)
  s_bad : int;              (** protocol errors answered CLIENT_ERROR *)
  s_batches : int;          (** latch holds (execution chunks) *)
  s_coalesced : int;        (** duplicate gets served from a chunk *)
  s_depth : int array;      (** current per-shard cross-shard inbox depth *)
  s_latency : Metrics.pctiles;  (** dispatch->response, microseconds *)
  s_queue_wait : Metrics.pctiles;  (** dispatch->execution, microseconds *)
  s_role : string;          (** ["primary"] or ["replica:<addr>"] *)
  s_replicas : int;         (** live replica connections (as a primary) *)
  s_repl_lag_us : float;    (** most recent send->ack lag sample *)
  s_repl_seq : int;         (** commit-log head *)
  s_applied : int;          (** deltas applied (as a replica) *)
  s_fence_timeouts : int;   (** sync fences released by their 5 s timeout *)
  s_getv : int;
  s_cas : int;
  s_cas_conflicts : int;    (** CAS guards that lost to an earlier writer *)
  s_txns : int;             (** txn ... exec requests executed *)
  s_txn_commits : int;      (** committed transactions (incl. single-op cas) *)
  s_txn_aborts : int;       (** transactions aborted by a CAS guard *)
  s_scans : int;
  s_scan_items : int;       (** total items returned by scans *)
  s_shards : int;
  s_xshard : int;           (** requests routed or committed across shards *)
  s_conns_rejected : int;   (** connections refused at {!fd_cap} *)
  s_fd_cap : int;           (** open connections plus replication links
                                loop 0 admits before refusing: [select]
                                readiness breaks past FD_SETSIZE *)
}

val stats : t -> stats

(** The [STAT k v] pairs of the protocol's [stats] verb. The historical
    fields keep their names and order; new fields append. *)
val stats_fields : t -> (string * string) list

(** {1 Replication}

    A primary needs no calls here: the [repl] handshake turns a
    connection into a link its shard loop hosts, [set]/[del] commits
    append to the delta log, and {!drain} flushes the log tail to every
    replica. The functions below are the replica side and introspection
    (DESIGN.md §8.10). *)

(** Apply one delta received from the primary: executes through the same
    entry path as a client [set]/[del], under the owning shard's latch,
    and mirrors the primary's seq into the local log. The replica
    client calls strictly in seq order, so the mirrored log stays dense
    even though deltas fan out across shards. Fails on a seq gap. *)
val apply_put :
  t -> seq:int -> key:int -> payload:string -> (unit, string) result

val apply_del : t -> seq:int -> key:int -> (unit, string) result

(** {!apply_put} or {!apply_del}, by the delta's op: the replica
    client's [apply] callback. *)
val apply_delta : t -> Privagic_replication.Delta.t -> (unit, string) result

(** Leave the read-only replica role and accept client writes; the
    promoted server's mirrored log lets downstream replicas keep
    streaming from their positions. *)
val promote : t -> unit

val is_replica : t -> bool

(** ["primary"] or ["replica:<addr>"]. *)
val role_name : t -> string

(** The commit log — the merged monotone sequence every shard appends
    to under its latch (convergence oracles replay it, whole or
    filtered per shard). *)
val repl_log : t -> Privagic_replication.Log.t

(** The delta shipper (lag percentiles, seal counters). *)
val repl_hub : t -> Privagic_replication.Shipper.t

(** Wire-capture tap for the robust-safety monitor ({!Privagic_robust}):
    observes every response byte any server in the process writes to a
    client connection, before the socket write. [None] detaches. The
    secrecy trace property asserts that no live secret-colored value
    appears on a client connection unsealed. *)
val set_wire_tap : (string -> unit) option -> unit
