(** Zoned, sparse, byte-addressed simulated memory.

    Each zone — unsafe memory, one per enclave, read-only data — owns a
    2 GiB slice of one flat address space. Storage is 4 KiB pages
    materialized on first touch, so multi-hundred-MiB datasets cost only
    the pages a workload actually writes. Address 0 is never mapped. *)

type zone = Unsafe | Enclave of string | Rodata

val zone_to_string : zone -> string

type t

exception Fault of int * string

val create : unit -> t

(** Concurrent mode (the parallel backend): serialize every heap operation
    under an internal mutex so several domains can share the heap. Off by
    default; the simulated backend pays one boolean test per access. The
    lock protects the heap's own structures (region list, page tables, bump
    pointers) — program-level data races keep their nondeterminism. *)
val set_concurrent : t -> bool -> unit

(** Bump allocation; 8-byte aligned, cache-line aligned from 64 bytes (as
    size-class allocators do). *)
val alloc : t -> zone -> int -> int

(** Allocation on the zone's stack region: separate from the heap so stack
    churn does not perturb heap layout. *)
val alloc_stack : t -> zone -> int -> int

(** Rewind every stack region; called between requests (frames of one
    request nest, nothing refers to a dead frame). *)
val reset_stacks : t -> unit

(** Deallocation is accounting-only (live-byte counters). *)
val free : t -> int -> int -> unit

val zone_of : t -> int -> zone

(** Little-endian load/store of 1..8 bytes.
    @raise Fault on address 0 or unmapped regions. *)
val load : t -> int -> int -> int64

val store : t -> int -> int -> int64 -> unit
val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit

(** Trace hook for the robust-safety monitor ({!Privagic_robust}): called
    as [f addr size value zone] after every committed {!store} — the one
    choke point through which both engines, the externals' byte copies,
    the parallel workers and the replication apply path write memory.
    Costs one option test per store when unset. The tap runs outside the
    heap mutex; a concurrent monitor must serialize itself. *)
val set_store_tap : t -> (int -> int -> int64 -> zone -> unit) option -> unit

(** Fold [f acc page_base page_bytes] over the materialized pages of a
    zone, heap and stack regions alike — the monitor's whole-zone sweep
    for secret byte patterns. *)
val fold_zone_pages :
  t -> zone -> init:'a -> f:('a -> int -> Bytes.t -> 'a) -> 'a

(** Intern a NUL-terminated string in the read-only zone. *)
val intern_string : t -> string -> int

val read_string : ?max:int -> t -> int -> string

(** Live bytes allocated in a zone (heap only). *)
val live_bytes : t -> zone -> int
