(** Instruction-level executor shared by the plain interpreter ({!Interp})
    and the partitioned one ({!Pinterp}). The driver supplies hooks for
    everything that differs: call dispatch, thread spawning,
    per-instruction preludes (barriers), stack-slot placement. Every
    instruction charges [cycles_per_instr]; every memory access goes
    through the cache model with the current CPU zone and the zone the
    data lives in. *)

open Privagic_pir
module Sgx = Privagic_sgx

exception Trap of string

(** Which executor runs function bodies: the original tree-walker or the
    index-resolved loop over the flattened image ({!Image}). *)
type engine = Walk | Image

val engine_of_string : string -> engine option
val engine_name : engine -> string

(** The session default: [Image] unless overridden by the
    [PRIVAGIC_ENGINE] environment variable ([walk] or [image]).
    @raise Invalid_argument on an unknown engine name. *)
val default_engine : unit -> engine

type t = {
  m : Pmodule.t;
  heap : Heap.t;
  layout : Layout.t;
  machine : Sgx.Machine.t;
  globals : (string, int) Hashtbl.t;       (** global name -> address *)
  func_addrs : (string, int) Hashtbl.t;    (** function pointers *)
  addr_funcs : (int, string) Hashtbl.t;
  out : Buffer.t;                          (** program output *)
  mutable cpu : Sgx.Machine.zone;          (** current processor mode *)
  mutable clock : Privagic_runtime.Vclock.t;               (** current worker's clock *)
  mutable current_func : string;
  mutable steps : int;
  fuel : int;
  data_map : Heap.zone -> Sgx.Machine.zone;
  mutable hooks : hooks;
  reg_ty_cache : (string, (Func.t * (int, Ty.t) Hashtbl.t) list) Hashtbl.t;
      (** keyed by name, disambiguated by physical identity (specialized
          instances share a bare name but not their registers) *)
  mutable run_func : (t -> Func.t -> Rvalue.t array -> Rvalue.t) option;
      (** engine override, installed by [Image.install]; [None] walks *)
  mutable extern_tap : (t -> string -> Rvalue.t array -> unit) option;
      (** trace monitor hook ({!Privagic_robust}): observes every external
          call before it executes — declassification authorization, program
          output, simulated network sends. Copied by [clone_shared], so
          parallel workers inherit the monitor. *)
  mutable externs : int;
      (** extern dispatches retired on this executor (obs counter) *)
  declass : (string, int ref) Hashtbl.t;
      (** declassification calls per color name; per-executor, summed at
          obs metrics registration *)
  mutable obs_ring : Privagic_obs.Ring.t option;
      (** when attached, extern dispatches drop a point event here; [None]
          keeps the obs-off dispatch path a single int increment *)
}

and hooks = {
  h_call : t -> Instr.t -> string -> Rvalue.t array -> Rvalue.t;
  h_callind : t -> Instr.t -> Rvalue.t -> Rvalue.t array -> Rvalue.t;
  h_spawn : t -> Instr.t -> string -> Rvalue.t array -> unit;
  h_pre_instr : t -> Instr.t -> unit;
  h_alloca_zone : t -> Ty.t -> Heap.zone;
}

(** Add cycles to the current clock. *)
val charge : t -> float -> unit

(** Charge one access through the cache model. *)
val charge_mem : t -> int -> int -> unit

val charge_range : t -> int -> int -> unit

val create :
  ?fuel:int ->
  ?data_map:(Heap.zone -> Sgx.Machine.zone) ->
  Pmodule.t -> Heap.t -> Layout.t -> Sgx.Machine.t -> hooks -> t

(** Per-worker executor for the parallel backend: shares the module, heap,
    layout and global/function-address tables, but owns its machine, clock,
    CPU mode, output buffer and hooks. Pre-warm the shared tables with
    {!warm_caches} before domains start so they are read-only at run time. *)
val clone_shared : t -> machine:Sgx.Machine.t -> hooks:hooks -> t

(** Populate the lazily-built shared tables (function addresses,
    register-type tables) for every module function plus [extra]
    (partition chunks), so concurrent readers never mutate them. *)
val warm_caches : t -> extra:Func.t list -> unit

val func_addr : t -> string -> int
val size_of_ty : t -> Ty.t -> int
val scalar_size : Ty.t -> int

(** Execute a function with the given arguments in registers 0..n-1.
    @raise Trap on runtime errors (division by zero, unknown externals,
    fuel exhaustion). *)
val exec_func : t -> Func.t -> Rvalue.t array -> Rvalue.t

(** The tree-walking executor body, bypassing [run_func]: the image
    engine's fallback for functions absent from the image. Does not
    save/restore [current_func] — callers go through {!exec_func}. *)
val exec_func_body : t -> Func.t -> Rvalue.t array -> Rvalue.t

(** Cached static register types of [f] (per physical instance). *)
val reg_tys : t -> Func.t -> (int, Ty.t) Hashtbl.t

(** {2 Shared evaluation helpers (used by the image engine)} *)

val exec_binop : Instr.binop -> Rvalue.t -> Rvalue.t -> Rvalue.t
val exec_icmp : Instr.icmp -> Rvalue.t -> Rvalue.t -> Rvalue.t
val exec_fcmp : Instr.icmp -> Rvalue.t -> Rvalue.t -> Rvalue.t
val exec_cast : Instr.castop -> Rvalue.t -> Ty.t -> Rvalue.t

(** Charge + perform one scalar memory access of the given static type. *)
val do_load : t -> int -> Ty.t -> Rvalue.t

val do_store : t -> int -> Ty.t -> Rvalue.t -> unit

(** Resolve an indirect-call target address back to a function name. *)
val resolve_func : t -> Rvalue.t -> string

(** Allocate every global in the zone [zone_of] assigns it and store the
    initializers. *)
val init_globals : t -> (string -> Heap.zone) -> unit

(** §7.2 extension point: [alloc_node2] allocates the struct its
    destination global points to (splitting multi-color fields) and
    publishes the address through that global. *)
val alloc_node2 :
  t -> zone_for:(Ty.t -> Heap.zone) -> Instr.t -> Rvalue.t option

(** Allocation-site analysis (§7.2): (function, malloc call id) -> the
    struct type its result is cast to. *)
val alloc_sites : Pmodule.t -> (string * int, Ty.t) Hashtbl.t
