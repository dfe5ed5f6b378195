(** Set-associative LRU cache model, used for the L1, the shared LLC and —
    at page granularity — the EPC working set. Addresses are simulated
    byte addresses; the model answers hit/miss, latencies live in
    {!Cost}. Sets are allocated on first touch, so a model's memory
    follows the lines a run uses, not its capacity. *)

type t

(** [create ~size_bytes ~line_bytes ~assoc]; sizes round up to powers of
    two. *)
val create : size_bytes:int -> line_bytes:int -> assoc:int -> t

(** Access one line; [true] = hit. *)
val access_line : t -> int -> bool

(** Access [size] bytes at [addr]; returns [(line_misses, lines_touched)]. *)
val access : t -> int -> int -> int * int

(** Same access as {!access}, returning only the miss count — no tuple
    allocation; single-line accesses reduce to one {!access_line}. *)
val access_misses : t -> int -> int -> int

(** Lines an access of [size] bytes at [addr] touches (pure arithmetic). *)
val lines_touched : t -> int -> int -> int

val miss_ratio : t -> float
val reset_stats : t -> unit
