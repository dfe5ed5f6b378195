(** The replication unit and its wire codec.

    A delta is one committed visible effect of the partitioned store —
    a put or a delete — stamped with the commit sequence number the
    primary assigned under its store mutex. The log of deltas is the
    replication stream; shipping it in order reproduces the store.

    Wire format of the primary→replica stream (after the replica's
    [repl] handshake line, which the serving protocol parses):

    {v
    REPLOK <start_seq>                    handshake reply
    DPUT <seq> <key> <color> <s> <len>\r\n<len bytes>\r\n
    DDEL <seq> <key>
    v}

    [<color>] is the color token of the stored value ([U] for unsafe
    memory, otherwise the enclave name); [<s>] is 1 when the payload
    bytes are sealed ({!Seal}) and 0 when they are plaintext. A frame
    carrying a secret-colored payload is {e always} sealed by the
    shipper — plaintext secrets never reach the wire.

    The replica→primary direction is two line verbs, rendered here and
    parsed by {!render_hello}/{!render_ack}'s counterparts: the serving
    protocol's request reader recognizes [repl <sync|async> <from_seq>],
    and the shipper's {!ack_reader} recognizes [ack <seq>].

    Both readers are incremental over a growable byte buffer, exactly
    like the serving protocol's: they never block and keep partial
    input (including partial binary payload blocks) for the next feed. *)

type op =
  | Put of { key : int; color : string; payload : string }
      (** the payload is the client's exact value bytes, plaintext —
          sealing happens at ship time, unsealing at apply time, so the
          log on either side stays inside the enclave abstraction *)
  | Del of { key : int }

type t = { seq : int; op : op }

(** {1 Primary side: rendering the stream} *)

val render_ok : int -> string

(** [render ~sealer d] — the wire frame of [d]. [sealer] is applied to
    a [Put] payload whose color is an enclave color (anything but [U]);
    [None] ships plaintext with the sealed flag clear (plain programs,
    whose store is unsafe memory anyway). *)
val render : sealer:(color:string -> nonce:int -> string -> string) option ->
  t -> string

(** {1 Replica side: parsing the stream} *)

type frame =
  | Ok_hello of int                       (** REPLOK: first streamed seq *)
  | Frame of { d : t; sealed : bool }
  | Corrupt of string
      (** malformed frame: a replication stream cannot resynchronize, so
          the reader stops consuming after emitting this *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> int -> frame list

(** {1 The replica→primary verbs} *)

(** [render_hello ~sync ~from_seq] — the handshake request line the
    serving protocol parses as [Protocol.Repl]. *)
val render_hello : sync:bool -> from_seq:int -> string

val render_ack : int -> string

type ack_reader

val ack_reader : unit -> ack_reader

(** Complete [ack] lines fed so far; [Error _] lines are protocol
    violations the shipper treats as a dead replica. *)
val feed_acks : ack_reader -> bytes -> int -> (int, string) result list
