(** Partitioned interpreter: executes a {!Privagic_partition.Plan} over
    the SGX simulator with the runtime architecture of §7.3 — per
    application thread, one worker per partition color; spawn messages
    start missing chunks; cont messages carry F values and return values;
    everything runs in virtual time on the deterministic scheduler.

    Crossing costs are a parameter: the lock-free queue of the Privagic
    runtime by default, or the lock-based switchless call for the
    Intel-SDK baselines. See the implementation header and DESIGN.md §8.2
    for the host-order/virtual-order discipline. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx
module Sched = Privagic_runtime.Sched
module Tel = Privagic_telemetry

exception Error of string

type payload = Cont of { seq : int; tag : tag; value : Rvalue.t }
and tag = Retval | Token

type mail = { sent_at : float; flow : int; payload : payload }

type worker = {
  w_thread : int;
  w_color : Color.t;
  w_track : int;  (** telemetry track of this worker *)
  mutable w_mail : mail list;
}

type activation = {
  act_seq : int;
  act_root : int;  (** seq of the request the activation serves *)
  act_key : Infer.instance_key;
  act_pf : Plan.pfunc;
  act_participants : Color.t list;
  mutable act_pending : int;
  mutable act_done_max : float;
  mutable act_done_flow : int;
  mutable act_colors_done : Color.t list;
}

type fiber_ctx = {
  worker : worker;
  mutable act : activation;
  mutable calls : Dispatch.counts;
      (** this participant's call-site executions within [act] *)
  clock : Privagic_runtime.Vclock.t;
}

(** Execution trace events (the runtime's own Figure 7). *)
type event =
  | Ev_spawn of { target : Color.t; chunk : string }
  | Ev_cont of { target : Color.t; tag : string }
  | Ev_chunk_start of { color : Color.t; chunk : string }
  | Ev_chunk_end of { color : Color.t; chunk : string }
  | Ev_barrier of { color : Color.t }

type traced_event = { ev_at : float; ev : event }

type t = {
  plan : Plan.t;
  exec : Exec.t;
  disp : activation Dispatch.t;
      (** shared plan math and sequence agreement (see {!Dispatch}) *)
  sched : Sched.t;
  workers : (int * string, worker) Hashtbl.t;
  crossing : Sgx.Machine.t -> float;
  mutable current : fiber_ctx option;
  thread_clock : (int, Privagic_runtime.Vclock.t) Hashtbl.t;
  mutable next_thread : int;
  mutable traps : string list;
  mutable guard : bool;
  mutable trace : traced_event list option;
  mutable tel : Tel.Recorder.t;
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

(** Attach a telemetry recorder across every layer of the VM: the
    scheduler (fiber lifecycle), the message layer (send/recv flows), the
    machine (transition and fault events), and the recorder's clock
    context. Pass {!Tel.Recorder.null} to detach. *)
val set_telemetry : t -> Tel.Recorder.t -> unit

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

(** §8 extension: inject a forged spawn message (the attacker model). With
    the guard on (default), chunks the plan never spawns into that
    partition are rejected. *)
val inject_spawn :
  t -> ?thread:int -> color:Color.t -> chunk:string -> Rvalue.t list ->
  (unit, string) result

val set_spawn_guard : t -> bool -> unit

(** Tracing: [start_trace] begins recording; [stop_trace] returns the
    events in emission order and stops recording. *)
val start_trace : t -> unit

val stop_trace : t -> traced_event list
val pp_event : Format.formatter -> traced_event -> unit
val pp_trace : Format.formatter -> traced_event list -> unit
