(** A self-pipe: an event loop puts {!fd} in its [Unix.select] read set,
    and any thread or domain calls {!wake} to end that select. Both ends
    are nonblocking, so waking never blocks and a full pipe still means
    a pending wakeup. *)

type t

val create : unit -> t

(** The read end, for the owner's select set. *)
val fd : t -> Unix.file_descr

(** Write one byte. Errors are ignored: a full pipe is already readable,
    and a closed one has no reader to wake. *)
val wake : t -> unit

(** Consume every pending byte. Owner only. *)
val drain : t -> unit

val close : t -> unit
