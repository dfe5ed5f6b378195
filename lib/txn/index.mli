(** Secondary indexes over the colored store: an ordered index (range
    scans in ascending key order) and a hash index from value
    fingerprints back to primary keys.

    Color inheritance: an entry inherits the color of the value it
    indexes, and the index lives in unsafe memory — so entries for
    secret-colored values carry only (key, version, length). Value
    bytes are cached and fingerprinted exclusively for color ["U"];
    {!put} enforces this regardless of what the caller passes, making
    secret values structurally unreachable through the index. *)

type entry = {
  e_key : int;
  e_version : int;
  e_len : int;
  e_color : string;
  e_value : string option;  (** [Some bytes] iff [e_color = "U"] *)
}

type t

val unprotected_color : string
(** ["U"] — the only color whose values the index may cache. *)

val fingerprint : string -> int64
(** 64-bit FNV-1a over the value bytes. *)

val create : unit -> t

val put :
  t -> key:int -> version:int -> len:int -> color:string -> value:string option -> unit
(** Insert or overwrite the entry for [key]. [value] is dropped unless
    [color = "U"]. *)

val del : t -> key:int -> unit
val find : t -> int -> entry option
val mem : t -> int -> bool
val cardinal : t -> int

val range : t -> start:int -> stop:int -> limit:int -> entry list
(** Entries with [start <= key <= stop], ascending, at most [limit]. *)

val lookup : t -> string -> entry list
(** Keys currently holding exactly these value bytes — always [] for
    secret-colored values. *)
