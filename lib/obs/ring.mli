(** Per-writer lock-free event ring: the one event store of the runtime.

    Fixed capacity (rounded up to a power of two), overwrite-oldest, and
    {b zero allocation on the record path}: the four stores (timestamp,
    track, code, arg) are plain [int array]s, so [record] is four
    unboxed stores and an increment. Everything else is interned when it
    is registered: track names by {!track}, chunk and request names by
    {!intern}; a message's tag is part of its code ({!Ev.t}).

    A ring has one clock: [Wall] stamps integer microseconds since the
    process obs epoch ({!Privagic_obs.now_us}), [Virtual] stamps
    simulated cycles, exactly ({!of_cycles}).

    A ring has one writer at a time — the domain that owns it (a lane, a
    shard loop and the replication links it hosts), or whoever runs the
    VM it belongs to. Readers merge rings {e after} quiescence ([Domain.join], a thread
    join or a drain gives the happens-before), so the hot path needs no
    fence. *)

type clock = Virtual | Wall

type t

(** [cap] (default 4096) is rounded up to a power of two; [clock]
    defaults to [Wall]. [id] orders rings in a merge and must be unique
    among the rings merged together. *)
val create : ?cap:int -> ?clock:clock -> id:int -> label:string -> unit -> t

(** Append one event, [ts] in the ring's clock. Never allocates, never
    blocks; overwrites the oldest event once the ring is full. *)
val record : t -> track:int -> code:int -> arg:int -> ts:int -> unit

(** [record] on track 0 of a [Wall] ring, stamped with an amortized
    clock: one real read every 32 calls (a gettimeofday per event costs
    several percent of steps/s at extern-dispatch frequency), never
    behind the last exact-time [record]. *)
val record_now : t -> code:int -> arg:int -> unit

(** [f ()] as a request span ([Req_begin]/[Req_end] on track 0 of a
    [Wall] ring); [name] is an interned name. *)
val span : t -> name:int -> (unit -> 'a) -> 'a

(** A virtual timestamp (non-negative cycles) as a ring timestamp, and
    back; exact. *)
val of_cycles : float -> int

val to_cycles : int -> float

(** Register a track; numbers are dense from 0. It displays as
    [label/name] ([name] alone under an empty label). A ring that
    registers none records on track 0, named by its label. *)
val track : t -> string -> int

(** The id of an interned name, dense from 0 in interning order: the arg
    of a chunk or request event. Intern when registering, not per
    event. *)
val intern : t -> string -> int

val capacity : t -> int
val id : t -> int
val label : t -> string
val clock : t -> clock

(** Events ever written; held now ([min total capacity]); lost to
    overwrite-oldest. *)
val total : t -> int

val length : t -> int
val dropped : t -> int

(** {2 Readers} *)

type event = {
  ev_at : float;  (** cycles or microseconds, per the ring's clock *)
  ev_clock : clock;
  ev_ring : int;  (** originating ring id *)
  ev_seq : int;  (** per-ring sequence number *)
  ev_track : int;  (** global track (see {!tracks}) *)
  ev_kind : Ev.t;
  ev_arg : int;  (** a [Fiber_spawn]'s track arg is global too *)
  ev_name : string;  (** a chunk or request event's name, else [""] *)
}

(** Surviving events in record order: ring by ring in id order, oldest
    first within a ring. *)
val events : t list -> event array

(** The same events as one timeline sorted by [(clock, at, ring, seq)]: a
    total order, so the result does not depend on the input order. *)
val merge : t list -> event array

(** Name and clock of each global track: rings in id order, each owning
    a contiguous block of numbers. *)
val tracks : t list -> (string * clock) array
