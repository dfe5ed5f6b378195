(** Multi-key read-modify-write transactions with snapshot reads,
    first-writer-wins conflict detection (per-key versions + CAS
    guards) and atomic commit, layered over the colored store.

    All state mutation must be serialized by the caller (the server
    holds the shard's latch); the counters are atomics so a metrics
    thread may read them concurrently. The per-key table is
    {!module:Index}; {!publish} makes its current state readable
    without the latch ({!published}). *)

type store_ops = {
  o_get : int -> (string option, string) result;
  o_set : int -> string -> (unit, string) result;
  o_del : int -> (bool, string) result;
  o_max_value : int;
      (** largest value size [o_set] accepts ([max_int] = unbounded) *)
  o_can_del : bool;  (** [false] when the store has no delete entry *)
}
(** The store's own entry points — every value still crosses the
    partition boundary through these. [o_max_value] and [o_can_del]
    declare what the callbacks would reject, so {!execute} can fail an
    inapplicable transaction during validation instead of discovering
    the rejection halfway through the apply phase. *)

type op =
  | T_get of int
  | T_set of int * string
  | T_del of int
  | T_cas of int * int * string  (** key, expected version, value *)

type op_result =
  | R_value of string option
  | R_stored
  | R_deleted
  | R_not_found

type write = W_put of { w_key : int; w_value : string } | W_del of { w_key : int }

type abort = { a_key : int; a_expected : int; a_found : int }

type outcome =
  | Committed of op_result list * write list
      (** per-op results, plus the writes to emit as one replication
          delta batch at the commit point *)
  | Aborted of abort  (** a CAS guard lost: first writer already won *)
  | Failed of { f_msg : string; f_applied : write list }
      (** the transaction could not commit: either validation rejected
          an inapplicable write (oversize value, del on a del-less
          store — [f_applied] is [[]] and the store is untouched), or a
          store callback failed mid-apply, which phase-1 gating makes
          unexpected; in that case [f_applied] is the prefix of writes
          that DID commit (versions and indexes advanced), and the
          caller must ship it to replicas like a committed batch or
          they diverge permanently *)

type t

val create : value_color:string -> unit -> t
(** [value_color] is the color of the store's values; the table caches
    value bytes, and the hash index maps them, only when it is
    {!Index.unprotected_color}.

    The table starts empty and there is no backfill path: the layer
    only learns about keys through its commit hooks. The underlying
    store must therefore be empty when the layer attaches — a key
    written to the store before [create] would be invisible to scans,
    report version 0 via {!version}, and fail the in-transaction del
    presence check. *)

val version : t -> int -> int
(** Committed version of a key; 0 when never written. Every committed
    put or del bumps it by one. *)

val length : t -> int -> int option
(** Stored length of a present key. *)

val note_put : t -> key:int -> value:string -> unit
(** Commit-point hook for a non-transactional put (plain set, or a
    replicated delta applied on a replica). *)

val note_del : t -> key:int -> unit

val publish : t -> unit
(** Publish the table as it stands. The holder of the lock that
    serializes this layer's writes calls it just before releasing the
    lock, so a published table only ever shows whole lock holds. *)

val published : t -> Index.t
(** The table as of the last {!publish}; safe from any domain, without
    the lock. *)

val execute : t -> store_ops -> op list -> outcome
(** Run a transaction atomically at the current commit point: validate
    all ops against the snapshot (reads see the transaction's own
    buffered writes, applicability is checked against [o_max_value] /
    [o_can_del]), then — only if every op validated and no CAS guard
    failed — apply the writes through the store. An abort or a
    validation failure leaves the store untouched. *)

val execute_routed :
  route:(int -> t * store_ops) -> coord:t -> op list -> outcome
(** {!execute} generalized over a partitioned store: every per-key
    access — snapshot read, version lookup, presence check,
    applicability limit, apply callback, commit hook — goes through
    [route key], so a transaction may span several independently-owned
    shards (the sharded server's cross-shard two-phase commit: phase 1
    validates against every participant, phase 2 applies only if all
    validated). The caller must hold whatever serializes commits on
    {e every} routed shard for the whole call; [coord] owns the
    commit/abort counters so per-shard sums never double-count.
    [execute t s ops] is [execute_routed ~route:(fun _ -> (t, s))
    ~coord:t ops]. *)

val scan : t -> start:int -> stop:int -> limit:int -> Index.item list
(** Range scan [start <= key <= stop] (ascending, at most [limit]) of
    the current table, under the lock; secret-colored items carry no
    value bytes. *)

val lookup : t -> value:string -> int list
(** The keys currently holding exactly these value bytes, ascending —
    always [] for secret colors. *)

val commits : t -> int
val aborts : t -> int
