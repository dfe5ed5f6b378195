(** The runtime protocol of §7.3, written once over a scheduler.

    Who spawns which chunk, who waits for what, who sends the return value
    to whom, where a barrier falls, how the entry interface, an indirect
    call and the [spawn] instruction start their chunks, and the host-order
    discipline of DESIGN.md §8.2 — all decided here, from the records
    {!Dispatch} resolved. A scheduler ({!sched}) only carries the messages
    and waits: {!Pinterp} on virtual-time fibers, [Privagic_parallel.Parallel]
    on domains. *)

open Privagic_pir
open Privagic_partition
module Sgx = Privagic_sgx

(** Both backends raise this (re-exported as [Pinterp.Error] and
    [Parallel.Error]). *)
exception Error of string

(** One executing instance of a function, shared by all its participants:
    the participants of a call site get the same record from the sequence
    agreement ({!Dispatch.child}), and spawn messages carry it to the
    spawned chunks. ['s] is the scheduler's completion (and barrier)
    state. *)
type 's act = {
  act_seq : int;
  act_root : int;  (** seq of the request the activation serves *)
  act_rf : Dispatch.rfunc;  (** the function, resolved for its P *)
  act_spawned : Color.t list;  (** the colors started by spawn messages *)
  act_st : 's;
}

(** A scheduler, over its running participant ['c] (a fiber, a worker)
    and its activation state ['s]. Build one record per backend, once. *)
type ('c, 's) sched = {
  color : 'c -> Color.t;
  thread : 'c -> int;  (** application thread (a lane, on domains) *)
  act : 'c -> 's act;  (** the activation of the chunk it runs now *)
  calls : 'c -> Dispatch.counts;  (** its call-site counts within it *)
  exec : 'c -> Exec.t;
  disp : 'c -> 's act Dispatch.t;
  plan : 'c -> Plan.t;
  state : unit -> 's;  (** a fresh activation's state *)
  run : 'c -> 's act -> Dispatch.chunk -> Rvalue.t array -> Rvalue.t;
      (** run a chunk of the activation in a new frame *)
  send_spawn :
    'c -> thread:int -> 's act -> Color.t -> reply_to:(int * Color.t) list ->
    Rvalue.t array -> unit;
      (** start the activation's chunk of that color on the thread's
          worker; the chunk's result goes to each (thread, color) of
          [reply_to]. The receiver runs {!receive}. *)
  wait_spawned : 'c -> 's act -> unit;
      (** until every spawned chunk of the activation is done *)
  wait_earlier : 'c -> 's act -> Color.t list -> unit;
      (** until the spawned chunks of these colors are done *)
  send_cont : 'c -> thread:int -> Color.t -> seq:int -> Rvalue.t -> unit;
  wait_cont : 'c -> seq:int -> Rvalue.t;
  barrier : 'c -> int -> unit;  (** arrive at the barrier of an instr *)
  cross : 'c -> int -> unit;  (** charge n boundary crossings *)
  new_thread : 'c -> int;  (** a fresh application thread id *)
  finish : 'c -> 's act -> ok:bool -> unit;
      (** a spawned chunk is done ([ok]: it returned) *)
  trap : 'c -> 's act -> exn -> unit;
      (** a spawned chunk raised: record it as a trap of the request, or
          re-raise what the backend does not trap *)
}

val act_name : _ act -> string

(** The function name of the chunk color [c] runs for an activation
    (["<missing>"] if none). *)
val chunk_name : _ act -> Color.t -> string

(** An entry point's resolved interface and a fresh activation for it.
    @raise Error when [name] is not an entry point. *)
val entry_call :
  's act Dispatch.t -> string -> 's -> Dispatch.entry * 's act

(** The executor hooks of a worker: call sites, indirect calls, [spawn]
    and barriers go through the protocol, for the participant [current]
    returns. *)
val hooks : ('c, 's) sched -> (unit -> 'c) -> Exec.hooks

(** The receiving side of a spawn message: wait for the spawned siblings
    of lower color, run the chunk, send its result to [reply_to], and
    [finish] (after [trap] if it raised). *)
val receive :
  ('c, 's) sched -> 'c -> 's act -> reply_to:(int * Color.t) list ->
  Rvalue.t array -> unit

(** The §7.3.4 entry interface, on the untrusted worker: spawn the
    missing chunks, let them complete, then run the direct chunk or wait
    for the replier's cont. Returns the entry's result. *)
val entry :
  ('c, 's) sched -> 'c -> 's act -> Dispatch.entry -> Rvalue.t array ->
  Rvalue.t

(** §8: the activation a forged spawn of chunk [chunk] into partition
    [color] runs, or the injection's error ("no such chunk", "belongs to
    partition"). *)
val forged_act :
  's act Dispatch.t -> Plan.t -> chunk:string -> color:Color.t -> 's ->
  ('s act, string) result

(** §8 valid-spawn-sequence guard: the rejection of a forged spawn of the
    activation's chunk into [c], if the plan never spawns it there. *)
val spawn_guard : Plan.t -> _ act -> Color.t -> string option

(** The machine, heap, layout, globals (§7.1), image and dispatcher of a
    backend. [shared]: domains will share the executor, so its lazy
    caches are warmed first and the heap serializes its own structures. *)
val setup :
  ?config:Sgx.Config.t -> ?cost:Sgx.Cost.t -> ?engine:Exec.engine ->
  shared:bool -> Plan.t -> Exec.t * 's act Dispatch.t
