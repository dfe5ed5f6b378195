(** The in-memory commit log: the ordered sequence of deltas a store has
    committed, shared between the committing executors (writers) and the
    shipper threads (readers).

    Sequence numbers are 1-based and dense. On a primary, {!append}
    assigns them — it is called under the committing shard's latch, so
    the log order {e is} the commit order. On a replica, {!append_at}
    mirrors the primary's numbering as deltas apply, which keeps a
    promoted replica able to serve its own downstream replicas from the
    same stream positions.

    The log retains every delta (no truncation): a replica may join at
    any time with [from_seq = 1] and replay history. Entries are encoded
    compactly outside the OCaml heap — a put keeps its 14-byte header,
    its payload and an 8-byte index slot resident, a delete 17 bytes —
    so the collector never scans the log and memory grows by that much
    per delta, not by a boxed {!Delta.t}.

    Readers that wait for new entries {!subscribe} instead of polling:
    every append calls the subscribers once the entries are readable. *)

type t

val create : unit -> t

(** Append under the committing lock; returns the assigned seq. *)
val append : t -> Delta.op -> int

(** Append a committed transaction's writes as one contiguous run under
    a single lock hold — no other committer's delta can land inside the
    run, even when commits from several shards interleave. Returns the
    seq of the last appended delta (the current head when [ops] is
    empty). *)
val append_batch : t -> Delta.op list -> int

(** Mirror an already-numbered delta; [seq] must be exactly [head + 1].
    @raise Invalid_argument on a gap or replay. *)
val append_at : t -> seq:int -> Delta.op -> unit

(** Latest assigned seq; 0 when empty. *)
val head : t -> int

(** The delta at [seq], decoded afresh; [None] outside [1 .. head]. *)
val get : t -> int -> Delta.t option

(** The whole log, in seq order (for convergence oracles and tests). *)
val to_list : t -> Delta.t list

(** [subscribe t f] calls [f ()] after every append (once per batch),
    under the log's lock: [f] must be short, must not raise, and must not
    touch the log. Returns the function that unsubscribes; once it
    returns, [f] is not running and will not run again. An append with
    no subscriber calls nothing. *)
val subscribe : t -> (unit -> unit) -> unit -> unit
