(** Deterministic virtual-time scheduler.

    Workers are cooperative fibers (OCaml effect handlers). Each worker
    owns a virtual clock — a {!Vclock.t} of simulated cycles — that its
    code advances as it accounts work. A worker blocks by performing
    {!block}[ cond arrival]: it becomes runnable again when [cond ()]
    holds, and on resumption its clock jumps to at least [arrival ()]
    (the causal timestamp of whatever it waited for). The scheduler always
    resumes the runnable worker with the smallest clock, which makes the
    simulation a deterministic discrete-event execution.

    With a ring attached ({!set_ring}), every fiber lifecycle edge —
    spawn, start, block, resume, finish — is recorded on the fiber's
    track, giving the critical-path analyzer its happens-before
    skeleton. Without one, each edge costs a match on [None]. *)

type worker_state =
  | Not_started of (Vclock.t -> unit)
  | Blocked of (unit -> bool) * (unit -> float)
      * (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type worker = {
  wid : int;
  name : string Lazy.t;  (** formatted only when read *)
  track : int;       (** ring track the fiber's events land on *)
  clock : Vclock.t;
  mutable state : worker_state;
}

type t = {
  mutable workers : worker list;
  mutable next_id : int;
  mutable steps : int;
  mutable high_water : float;
  mutable ring : Privagic_obs.Ring.t option;
  mutable running : worker option;
}

(** How a {!run} ended: normally; with workers still blocked (servers
    awaiting messages); or because the step budget was hit — the payload
    is the total steps taken so far, and the execution is partial. *)
type outcome =
  | Completed
  | Blocked_workers of string list
  | Budget_exhausted of int

exception Deadlock of string list
(** Names of the workers blocked on unsatisfiable conditions (raised only
    when [run ~allow_blocked:false]). *)

val create : unit -> t

(** Attach the ring fiber lifecycle edges are recorded into (virtual
    clock; default: none). *)
val set_ring : t -> Privagic_obs.Ring.t -> unit

(** [spawn t ~name ~at body] registers a fiber whose clock starts at [at];
    it runs when the scheduler first picks it. May be called from inside a
    running fiber. [track] assigns the fiber's ring track (several
    fibers of one logical worker may share one); by default a fresh track
    of the attached ring, or 0 without one.
    [parent] overrides the spawning track recorded with the Fiber_spawn
    event (default: the running worker, or -1 for an external spawn); a
    parent equal to [track] marks the fiber as serialized after earlier
    work on its own track. [name] is forced only when a ring registers
    the fiber's track or a run reports it blocked, so a hot spawner need not
    format it. *)
val spawn :
  t -> name:string Lazy.t -> ?track:int -> ?parent:int -> at:float ->
  (Vclock.t -> unit) -> worker

(** Block the calling fiber; only valid inside a fiber run by {!run}. *)
val block : (unit -> bool) -> (unit -> float) -> unit

(** Run until every worker has finished or is blocked on a false condition,
    or the per-invocation [max_steps] budget is hit (reported as
    {!Budget_exhausted}, never silently). Workers left blocked are servers
    awaiting messages unless [allow_blocked] is [false], in which case
    {!Deadlock} is raised. Finished fibers are pruned; their clocks remain
    visible through {!max_clock}. *)
val run : ?allow_blocked:bool -> ?max_steps:int -> t -> outcome

(** Largest clock ever observed across workers, including already-pruned
    finished fibers (the makespan). *)
val max_clock : t -> float
