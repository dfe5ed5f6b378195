(** Replica-side replication client: connects to a primary's serving
    port, sends the [repl] handshake, applies the delta stream in order
    through a caller-supplied callback, acknowledges applied positions,
    and reports when the primary is gone (the promotion trigger).

    The apply callback receives plaintext deltas — sealed payloads are
    verified and unsealed here, inside the replica's enclave abstraction
    (the replica runs the same partitioned program, so its enclave holds
    the sealing key; see {!Seal}). An authentication failure is fatal
    for the link: the stream cannot be trusted past a forged frame. *)

type t

type status = Connecting | Streaming | Lost | Stopped

(** [start ~host ~port ~apply ()] — connect (retrying while the primary
    is not up yet, bounded by [connect_timeout_s], default 30) and apply
    the stream. [apply d] is called in seq order, exactly once per
    delta, from the client's own thread; an [Error] return kills the
    link (the replica cannot diverge silently). [on_lost reason] fires
    once when the link ends for any reason other than {!stop} — a
    drained primary, a killed primary, and a primary that never came up
    within the connect window all mean the replica may promote; [reason]
    says which (e.g. ["primary closed the stream"], ["could not connect
    to HOST:PORT"]). [sync] asks the primary to fence client writes on this
    replica's acks. *)
val start :
  ?sync:bool ->
  ?cluster:string ->
  ?from_seq:int ->
  ?connect_timeout_s:float ->
  ?on_lost:(string -> unit) ->
  host:string ->
  port:int ->
  apply:(Delta.t -> (unit, string) result) ->
  unit ->
  t

val status : t -> status

(** Highest contiguously applied seq. *)
val applied_seq : t -> int

(** Close the link and join the thread. Does not fire [on_lost]. *)
val stop : t -> unit

(** Block until the link leaves [Connecting]/[Streaming] (primary gone)
    or [timeout_s] elapses; [true] when the link ended. *)
val wait_lost : t -> timeout_s:float -> bool
