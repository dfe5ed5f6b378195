(** Partitioned interpreter: executes a {!Privagic_partition.Plan} over
    the SGX simulator — the virtual-time scheduler of the §7.3 protocol
    ({!Rtproto}): per application thread, one worker per partition color;
    spawn messages start missing chunks on fibers; cont messages carry F
    values and return values; everything runs in virtual time on the
    deterministic scheduler.

    Crossing costs are a parameter: the lock-free queue of the Privagic
    runtime by default, or the lock-based switchless call for the
    Intel-SDK baselines. See the implementation header and DESIGN.md §8.2
    for the host-order/virtual-order discipline. *)

open Privagic_pir
open Privagic_partition
module Sgx = Privagic_sgx
module Sched = Privagic_runtime.Sched

(** Runtime failures, including trapped fibers: {!Rtproto.Error}. *)
exception Error of string

(** The scheduler's own records: an activation ({!Rtproto.act} with this
    scheduler's completion state), an application thread, a fiber. *)
type activation
type thread
type fiber_ctx

(** Read-only outside the VM: servers and benches read [exec], [sched],
    [ring] and [disp]. *)
type t = private {
  plan : Plan.t;
  exec : Exec.t;
  disp : activation Dispatch.t;
      (** resolved plan and sequence agreement (see {!Dispatch}) *)
  sched : Sched.t;
  mutable threads : thread array;
  crossing : Sgx.Machine.t -> float;
  mutable current : fiber_ctx option;
  mutable next_thread : int;
  mutable traps : string list;
  mutable guard : bool;
  mutable ring : Privagic_obs.Ring.t option;
  mutable next_flow : int;
}

(** Build the VM for a plan; [crossing] prices one boundary message
    (default: the lock-free queue). [engine] selects the execution
    engine (default [Exec.default_engine ()]): [Image] lowers the plan
    into a flattened linked image shared by all fibers; [Walk] keeps
    the tree-walking oracle. *)
val create :
  ?config:Sgx.Config.t ->
  ?cost:Sgx.Cost.t ->
  ?crossing:(Sgx.Machine.t -> float) ->
  ?engine:Exec.engine ->
  Plan.t ->
  t

(** Trace the VM into a fresh ring (give it the [Virtual] clock; a ring
    that already interned names is refused) across every
    layer: the scheduler (fiber lifecycle), the message layer (chunk
    spans, send/receive flows, barriers) and the machine (transition and
    fault events). Existing workers get their tracks here; fibers
    already spawned keep theirs. The ring has one writer at a time:
    whoever runs the VM. *)
val attach_ring : t -> Privagic_obs.Ring.t -> unit

type entry_result = {
  value : Rvalue.t;
  latency_cycles : float;
  completed_at : float;
}

(** Call an entry point through its §7.3.4 interface: spawn the missing
    chunks, run the untrusted chunk, deliver the response once every
    participant finished. State (heap, caches, clocks) persists across
    calls; per-request stack regions are rewound. [max_steps] bounds the
    scheduler steps spent on this request; exhaustion raises an [Error]
    distinguishable from non-completion ("step budget exhausted").
    @raise Error on runtime failures (including trapped fibers). *)
val call_entry :
  t -> ?thread:int -> ?max_steps:int -> string -> Rvalue.t list ->
  entry_result

val output : t -> string
val machine : t -> Sgx.Machine.t

(** Whether application thread [thread] has a worker of this color. *)
val has_worker : t -> thread:int -> Color.t -> bool

(** §8 extension: inject a forged spawn message (the attacker model). With
    the guard on (default), chunks the plan never spawns into that
    partition are rejected. *)
val inject_spawn :
  t -> ?thread:int -> color:Color.t -> chunk:string -> Rvalue.t list ->
  (unit, string) result

val set_spawn_guard : t -> bool -> unit
