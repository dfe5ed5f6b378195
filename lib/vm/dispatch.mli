(** Backend-agnostic dispatch math for executing a partition plan.

    The virtual-time simulator ({!Pinterp}) and the real-parallel backend
    ([Privagic_parallel.Parallel]) make the same decisions from the same
    plan: which chunk a participant runs, who leads a call site, who
    receives the return value, which child activation the participants of
    a call site share. Holding those decisions here keeps the two backends
    from drifting; they keep only what genuinely differs (virtual clocks
    and fibers vs. domains and queues).

    The sequence agreement ({!child}) is the only runtime-mutable state,
    and it is bounded by the work in flight: an entry lives from the
    first to the last participant reaching its call site, and
    {!release} drops what a trapped request left.

    All lookups are exception-free (option-returning); each backend wraps
    misses in its own error type. Only {!dispatch_extern} may raise, and
    only [Exec.Trap], which both backends already treat as a program
    trap. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx

(** A dispatcher whose sequence agreement hands out ['a] — the backend's
    activation record, shared by every participant of one activation. *)
type 'a t

(** Build the dispatcher: all derived plan math (site presence, per-chunk
    register-use sets, allocation sites) is computed eagerly into
    immutable tables, so parallel workers share one instance without
    locking. Only the sequence agreement is runtime-mutable (see
    {!child} for its lifetime rule). [sites] reuses an existing
    allocation-site table (e.g. the image's) instead of recomputing one. *)
val create : ?sites:(string * int, Ty.t) Hashtbl.t -> Plan.t -> 'a t

(** {1 Color/zone mapping} *)

val zone_of_color : Color.t -> Heap.zone
val cpu_of_color : Color.t -> Sgx.Machine.zone

(** §7.1: a global's zone per the plan's placement; unplaced → unsafe. *)
val global_zone : Plan.t -> string -> Heap.zone

(** Stack slots of a colored type go to that enclave; everything else
    follows the executing worker's partition. *)
val alloca_zone : Ty.t -> current:Color.t -> Heap.zone

(** {1 Plan lookups} *)

val find_pfunc : _ t -> Infer.instance_key -> Plan.pfunc option

(** The chunk a participant of color [c] executes: its own chunk, or the
    single Free chunk of a pure-F (replicated) function. *)
val chunk_for : Plan.pfunc -> Color.t -> Func.t option

val find_entry : Plan.t -> string -> Plan.entry_plan option

(** Every chunk function of the plan (for {!Exec.warm_caches}). *)
val chunk_funcs : Plan.t -> Func.t list

(** Resolve a chunk function name back to (instance, pfunc, color) — used
    by the forged-spawn injection of both backends. *)
val locate_chunk :
  Plan.t -> string -> (Infer.instance_key * Plan.pfunc * Color.t) option

(** Colors of the chunks containing instruction [id]: the participants of
    a call site within a non-pure-F caller. Precomputed at create. *)
val site_presence : _ t -> Plan.pfunc -> int -> Color.t list

(** Does chunk [f] read register [r]? Precomputed at create. *)
val chunk_needs : _ t -> Func.t -> int -> bool

(** §7.3.3: does instruction [id] carry a synchronization barrier for this
    set of participants? *)
val barrier_at : Plan.pfunc -> int -> participants:Color.t list -> bool

(** {1 Sequence agreement} *)

(** A fresh sequence number, for an activation no other participant has
    to agree on (an entry call, an indirect call, a thread). *)
val fresh_seq : _ t -> int

(** Occurrence counters of one (activation, participant) pair, keyed by
    instruction id. A backend keeps them in the frame it saves and
    restores around a chunk, so they die with the chunk. *)
type counts

val counts : unit -> counts

(** [next c instr] is how many times [instr] was counted in [c] before,
    and counts it once more. *)
val next : counts -> int -> int

(** The child activation for the n-th execution of call site [instr]
    within parent activation [seq], n counted in [calls]. The [takers]
    participants of the site (|p_site|) agree on it without
    communication, because they execute the replicated call site the same
    number of times: the first creates it with [make] on a fresh sequence
    number, the others get the same value.

    Lifetime rule: a rendezvous entry exists only between the first and
    the last of the [takers] arriving, and a single-participant site never
    creates one. [root] names the request the activation serves, for
    {!release}. *)
val child :
  'a t ->
  calls:counts ->
  root:int ->
  seq:int ->
  instr:int ->
  takers:int ->
  (int -> 'a) ->
  'a

(** Drop every entry request [root] left behind — a participant that
    trapped never takes its share. Call once no participant of the request
    can still run. *)
val release : _ t -> root:int -> unit

(** Rendezvous entries currently held: zero whenever no request is in
    flight. *)
val pending : _ t -> int

(** {1 Call-site layout (§7.3.2)} *)

type site = {
  s_leader : Color.t;  (** starts the missing chunks *)
  s_inter : Color.t list;  (** callee colors already at the site *)
  s_spawned : Color.t list;  (** callee colors that must be spawned *)
  s_ret_sender : Color.t option;  (** who sends the return value *)
}

val site_layout :
  p_site:Color.t list -> callee_cs:Color.t list -> self:Color.t -> site

(** Participants outside the callee whose chunk reads the call's result
    register — they receive it in a cont message. *)
val ret_needers :
  _ t ->
  caller_pf:Plan.pfunc ->
  p_site:Color.t list ->
  callee_cs:Color.t list ->
  Instr.t ->
  Color.t list

(** Computed (register) F arguments at a call site — each travels to the
    spawned chunks in its own cont message, costing one crossing. *)
val f_reg_args : Plan.call_plan -> Instr.t -> int

(** §6.3/§7.3.4: the instance key under which an indirect call enters a
    defined function. *)
val indirect_entry_key : Plan.t -> Func.t -> Infer.instance_key

(** {1 External dispatch} *)

(** Execute a call to an undefined function: §7.2 allocation special cases
    (multicolor structs, [alloc_node2]), syscall-cost charging, then
    {!Externals.dispatch}.
    @raise Exec.Trap on an unknown external. *)
val dispatch_extern :
  _ t ->
  Exec.t ->
  color:Color.t ->
  caller:string ->
  Instr.t ->
  string ->
  Rvalue.t array ->
  Rvalue.t
