(** YCSB workload generation (Cooper et al., SoCC'10 — the paper's [15]):
    zipfian (standard 0.99 constant), scrambled zipfian, uniform and
    latest key distributions, and the standard workload mixes. Fully
    deterministic given the seed. *)

(** splitmix64 PRNG. *)
type rng

val rng : int -> rng
val next_int64 : rng -> int64

(** Uniform float in [0, 1). *)
val next_float : rng -> float

(** Uniform int in [0, n). *)
val next_int : rng -> int -> int

type zipfian

val zipfian : ?theta:float -> int -> zipfian

(** Next zipfian item in [0, items); item 0 is the hottest. *)
val zipfian_next : zipfian -> rng -> int

(** Zipfian with the hot items spread over the key space (YCSB's
    ScrambledZipfianGenerator). *)
val scrambled_zipfian_next : zipfian -> rng -> int

type distribution = Uniform | Zipfian | Latest

type op =
  | Read of int
  | Update of int
  | Insert of int
  | Scan of int * int  (** start key, requested length (workload E) *)
  | Rmw of int  (** read-modify-write on one key (workload F) *)

type spec = {
  record_count : int;
  operation_count : int;
  read_proportion : float;
  update_proportion : float;
  insert_proportion : float;
  scan_proportion : float;
  rmw_proportion : float;
  max_scan_len : int;  (** scan lengths are uniform in [1, max_scan_len] *)
  distribution : distribution;
  value_size : int;
  seed : int;
}

(** The standard mixes: A = 50/50 read/update zipfian, B = 95/5,
    E = 95/5 scan/insert, F = 50/50 read/RMW. *)
val workload_a :
  ?seed:int -> record_count:int -> operation_count:int -> value_size:int ->
  unit -> spec

val workload_b :
  ?seed:int -> record_count:int -> operation_count:int -> value_size:int ->
  unit -> spec

val workload_e :
  ?seed:int -> ?max_scan_len:int -> record_count:int -> operation_count:int ->
  value_size:int -> unit -> spec

val workload_f :
  ?seed:int -> record_count:int -> operation_count:int -> value_size:int ->
  unit -> spec

type t

val create : spec -> t
val next_op : t -> op

(** Deterministic pseudo-random payload for a key. *)
val value_for : size:int -> int -> string
