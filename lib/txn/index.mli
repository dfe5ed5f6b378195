(** The per-key table of one shard (DESIGN.md §8.13): an immutable
    ordered map from primary key to the key's committed version, stored
    length and — for color ["U"] only — cached value bytes. It lives in
    unsafe memory, so the caller ({!Txn}) passes value bytes only for
    unprotected values; a secret-colored key is (key, version, length)
    and nothing derived from its bytes.

    Being immutable, a table is also a snapshot: a root read once stays
    consistent however the writer moves on. *)

type t

(** One scanned key. [si_val] is the cached bytes of a color-["U"] key
    and [None] for a secret-colored one. *)
type item = { si_key : int; si_ver : int; si_val : string option }

val unprotected_color : string
(** ["U"] — the only color whose values the table may cache. *)

val empty : t

val add : t -> key:int -> ver:int -> len:int -> value:string option -> t
(** Insert or overwrite [key]. *)

val del : t -> key:int -> ver:int -> t
(** Mark [key] deleted at version [ver]. The key keeps its version (a
    tombstone), so writing it again continues from [ver]; it no longer
    counts as present and scans skip it. *)

val version : t -> int -> int
(** 0 when [key] was never written. *)

val length : t -> int -> int option
(** The stored length of a present key. *)

val value : t -> int -> string option
(** The cached bytes of a present color-["U"] key. *)

val mem : t -> int -> bool

val range : t array -> start:int -> stop:int -> limit:int -> item list
(** The keys with [start <= key <= stop] over the union of the tables,
    ascending, at most [limit]. The tables must hold disjoint key sets
    (shards partition the key space). The walk allocates one cursor per
    table and then only the items it returns. *)
