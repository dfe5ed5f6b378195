(** Primary-side delta shipping, as a state machine with no IO: per
    replica link it streams the commit log ({!Log}) as frames, seals
    secret-colored payloads ({!Seal}), bounds the in-flight window and
    tracks acknowledgement lag. It reads no clock and touches no
    socket, thread or lock; callers pass the time ([now], µs).

    The serving layer hosts each link in the shard loop that read the
    replica's [repl <sync|async> <from_seq>] handshake: that loop owns
    the socket, feeds it the bytes it reads ({!feed}), writes what
    {!output} returns, and calls {!fill} after every round of its core.
    The handshake guarantees the replica sends nothing after the hello
    until it has received frames, so the link starts with an empty
    input buffer.

    Sync vs async is the replica's choice, per link: a sync link gates
    {!synced} — the server holds a write's response until every live
    sync link acked the commit, which is what gives clients
    read-your-writes on replica reads. An async link only bounds its
    in-flight window.

    Ownership: a link is written only by its host (the one caller of
    {!fill}, {!feed}, {!output} and {!detach}). {!synced}, and the
    merged counters below, may be read from anywhere. *)

type t

type link

(** [create ~log ()] — [window] bounds unacknowledged in-flight deltas
    per link (default 1024); [cluster] is the shared secret sealing
    keys derive from. *)
val create : ?window:int -> ?cluster:string -> log:Log.t -> unit -> t

(** A new live link streaming from [from_seq]; [REPLOK <start>] is its
    first output. *)
val attach : t -> sync:bool -> from_seq:int -> link

(** Render the log entries past the link's cursor, up to its window,
    as frames into its output (a no-op on a dead link). *)
val fill : t -> link -> now:float -> unit

(** Take the bytes rendered so far; the host writes them in order. *)
val output : link -> string

(** Bytes read from the link: [ack <seq>] lines. A malformed line kills
    the link. *)
val feed : link -> bytes -> int -> now:float -> unit

(** The link is dead (EOF, IO error, stall, drain): it stops gating
    {!synced} and drops its queued state; its counters stay. *)
val detach : link -> unit

val alive : link -> bool

val is_sync : link -> bool

(** The link acked the log head. *)
val caught_up : t -> link -> bool

(** Every live sync link has acknowledged [seq] (true with none).
    Non-blocking; safe from any domain. *)
val synced : t -> seq:int -> bool

(** Live links. *)
val connected : t -> int

val sync_connected : t -> int

(** Most recent send→ack lag sample, microseconds (0.0 before any). *)
val last_lag_us : t -> float

(** Deltas rendered for the wire / payloads sealed, over all links
    ever attached. *)
val shipped : t -> int

val sealed_count : t -> int

(** Register the shipper's gauges (connections, lag, shipped/sealed
    counts, lag summary) on an obs registry. The closures merge the
    links' counters at exposition time. *)
val register_obs : t -> Privagic_obs.Registry.t -> unit

(** Wire-capture tap for the robust-safety monitor
    ({!Privagic_robust}): observes every byte rendered for any link in
    the process, before {!output} can hand it to a socket. [None]
    detaches. The secrecy trace property asserts that no live
    secret-colored value appears in this stream unsealed. *)
val set_wire_tap : (string -> unit) option -> unit
