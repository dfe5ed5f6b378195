(** Plain-text table rendering for the experiment reports. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> unit
val pp : Format.formatter -> t -> unit
val print : t -> unit

(** Formatting helpers: one decimal, two decimals, integer. *)
val f1 : float -> string

val f2 : float -> string
val i : int -> string

(** The [env] object of a BENCH_*.json record: [nproc], [ocaml],
    [git_sha], [PRIVAGIC_ENGINE], [PRIVAGIC_OBS] and [seed], the keys of
    the benchmark's own env block. *)
val env_json : seed:int -> string
