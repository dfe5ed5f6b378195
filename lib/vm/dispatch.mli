(** Backend-agnostic dispatch for executing a partition plan.

    The virtual-time simulator ({!Pinterp}) and the real-parallel backend
    ([Privagic_parallel.Parallel]) make the same decisions from the same
    plan: which chunk a participant runs, who leads a call site, who
    receives the return value, which child activation the participants of
    a call site share. Holding those decisions here keeps the two backends
    from drifting; they keep only what genuinely differs (virtual clocks
    and fibers vs. domains and queues).

    {!create} is the link step of the partitioned runtime: it resolves
    every partitioned function into an {!rfunc} — chunk and chunk code per
    color, barrier set, and a {!resolved} entry per instruction id — so an
    activation carries its record and a call site is an array index. The
    records are immutable once {!create} returns. The plan-level
    derivations ({!site_presence}, {!site_layout}, {!ret_needers},
    {!f_reg_args}, {!chunk_for}, {!barrier_at}) are what the records are
    built from, and the reference the tests hold them to; the request path
    calls none of them.

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

(** {1 Resolved records} *)

(** Call-site layout (§7.3.2). *)
type site = {
  s_leader : Color.t;  (** starts the missing chunks *)
  s_inter : Color.t list;  (** callee colors already at the site *)
  s_spawned : Color.t list;  (** callee colors that must be spawned *)
  s_ret_sender : Color.t option;  (** who sends the return value *)
}

(** A chunk as the runtime runs it. *)
type chunk = {
  ch_color : Color.t;
  ch_func : Func.t;
  ch_code : Image.code option;
      (** the image's code for [ch_func]; [None] under the walk engine or
          for a body the image could not lower *)
  ch_name : int;  (** index of [ch_func]'s name in {!chunk_names} *)
}

(** A partitioned function resolved for one participant set P. A colored
    function has one record, for P = its colorset (a forged spawn aside);
    a pure-F function has one per participant set that reaches it. The
    arrays are indexed by instruction id. *)
type rfunc = {
  rf_pf : Plan.pfunc;
  rf_participants : Color.t list;  (** P *)
  rf_pure : bool;  (** pure-F: one replicated Free chunk *)
  rf_chunks : chunk list;  (** in plan order *)
  rf_barrier : bool array;  (** {!barrier_at} with P *)
  rf_presence : Color.t list array;  (** {!site_presence} *)
  rf_sites : resolved array;
}

(** What an instruction does when it reaches the runtime. *)
and resolved =
  | Unplanned  (** not a call, or a call the plan does not cover *)
  | Extern  (** a call to an undefined (external) function *)
  | Call of rsite  (** a planned call to a partitioned function *)
  | Thread of rfunc  (** a §7.3 [spawn]: the new thread's record *)
  | Indirect of Color.t list
      (** an indirect call; the colors of the caller chunks that read
          its result *)

(** A resolved call site. *)
and rsite = {
  rs_callee : rfunc;  (** the record of every child activation *)
  rs_p_site : Color.t list;  (** the participants at the site *)
  rs_takers : int;  (** [List.length rs_p_site] *)
  rs_layout : site;
      (** {!site_layout}: the same for every participant, since the site
          has at least one *)
  rs_needers : Color.t list;  (** {!ret_needers} *)
  rs_f_reg_args : int;  (** {!f_reg_args} *)
}

(** An entry point's §7.3.4 interface, resolved. *)
type entry = {
  en_rf : rfunc;
  en_direct : Color.t option;  (** the chunk the interface runs itself *)
  en_spawned : Color.t list;  (** the chunks it starts by spawn *)
  en_replier : Color.t option;
      (** with no direct chunk, the spawned chunk that sends the result *)
}

(** Build the dispatcher and resolve the plan, eagerly, into immutable
    records that parallel workers share without locking. [image] supplies
    each chunk's code (omit it for the walk engine). [sites] reuses an
    existing allocation-site table (e.g. the image's) instead of
    recomputing one. Only the sequence agreement is runtime-mutable (see
    {!child} for its lifetime rule). *)
val create :
  ?sites:(string * int, Ty.t) Hashtbl.t -> ?image:Image.t -> Plan.t -> 'a t

(** Every chunk function name of the plan, sorted; a chunk's [ch_name]
    indexes it. A traced backend interns these into its ring once. *)
val chunk_names : 'a t -> string array

(** The resolution of instruction [id] of a record ([Unplanned] outside
    the function). *)
val resolved : rfunc -> int -> resolved

(** Whether instruction [id] carries a barrier for the record's P. *)
val barrier : rfunc -> int -> bool

(** The colors of the chunks holding instruction [id]. *)
val presence : rfunc -> int -> Color.t list

(** The chunk a participant of color [c] runs ({!chunk_for}). *)
val chunk : rfunc -> Color.t -> chunk option

(** Run a resolved chunk on an executor: its linked code when it has one,
    otherwise [Exec.exec_func]. *)
val run_chunk : Exec.t -> chunk -> Rvalue.t array -> Rvalue.t

(** An entry point by name. *)
val entry : _ t -> string -> entry option

(** The record an indirect call into defined function [name] runs, from a
    worker of color [color] (§6.3, §7.3.4). *)
val indirect : _ t -> string -> color:Color.t -> rfunc option

(** The record of a function for a participant set. Sets no request
    reaches (a forged spawn's) are resolved on the side, per call. *)
val shape : _ t -> Plan.pfunc -> Color.t list -> rfunc

(** Every record resolved at {!create}. *)
val records : _ t -> rfunc list

(** {1 Color/zone mapping} *)

val zone_of_color : Color.t -> Heap.zone
val cpu_of_color : Color.t -> Sgx.Machine.zone

(** §7.1: a global's zone per the plan's placement; unplaced → unsafe. *)
val global_zone : Plan.t -> string -> Heap.zone

(** Stack slots of a colored type go to that enclave; everything else
    follows the executing worker's partition. *)
val alloca_zone : Ty.t -> current:Color.t -> Heap.zone

(** {1 Plan-level derivations} *)

(** The chunk a participant of color [c] executes: its own chunk, or the
    single Free chunk of a pure-F (replicated) function. *)
val chunk_for : Plan.pfunc -> Color.t -> Func.t option

(** Every chunk function of the plan (for {!Exec.warm_caches}). *)
val chunk_funcs : Plan.t -> Func.t list

(** Resolve a chunk function name back to (instance, pfunc, color) — used
    by the forged-spawn injection of both backends. *)
val locate_chunk :
  Plan.t -> string -> (Infer.instance_key * Plan.pfunc * Color.t) option

(** Colors of the chunks containing instruction [id]: the participants of
    a call site within a non-pure-F caller. *)
val site_presence : Plan.pfunc -> int -> Color.t list

(** Does chunk [f] read register [r]? *)
val chunk_needs : Func.t -> int -> bool

(** §7.3.3: does instruction [id] carry a synchronization barrier for this
    set of participants? *)
val barrier_at : Plan.pfunc -> int -> participants:Color.t list -> bool

val site_layout :
  p_site:Color.t list -> callee_cs:Color.t list -> self:Color.t -> site

(** Participants outside the callee whose chunk reads the call's result
    register — they receive it in a cont message. *)
val ret_needers :
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
