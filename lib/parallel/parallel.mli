(** Real-parallel execution backend: runs a {!Privagic_partition.Plan}
    on OCaml 5 domains, with the lock-free runtime queue as the
    inter-partition channel — the §7.3 architecture on actual hardware
    threads, measured in wall-clock time.

    {!Pinterp} executes the same architecture (and the same {!Dispatch}
    decisions) in virtual time on one core; it is the deterministic
    oracle this backend is differentially tested against. See DESIGN.md
    §8.7 for what transfers between the two and what deliberately
    differs. *)

open Privagic_pir
open Privagic_vm
module Sgx = Privagic_sgx
module Tel = Privagic_telemetry

exception Error of string

type t

(** Build the backend for a plan. [lanes] bounds the worker pool:
    application threads map onto [lanes] queues per color, so the domain
    count stays at [lanes × colors] no matter how many threads the
    program spawns (OCaml caps usable domains near the core count).
    [engine] selects the execution engine (default
    [Exec.default_engine ()]): [Image] builds the flattened linked image
    once before the first domain starts and every worker shares it
    read-only; [Walk] keeps the tree-walking oracle. *)
val create :
  ?config:Sgx.Config.t ->
  ?cost:Sgx.Cost.t ->
  ?lanes:int ->
  ?engine:Exec.engine ->
  Privagic_partition.Plan.t ->
  t

type entry_result = { value : Rvalue.t; wall_seconds : float }

(** Call an entry point through its §7.3.4 interface and wait for the
    response {e and} for pool quiescence (background threads spawned by
    the request finish first, matching the simulator's semantics).
    [timeout_s] (default 60) turns a deadlocked pool into an [Error]
    mentioning "timed out" instead of a hang.
    @raise Error on traps, timeouts, and runtime failures. *)
val call_entry :
  t -> ?thread:int -> ?timeout_s:float -> string -> Rvalue.t list ->
  entry_result

(** Close every worker queue and join the domains. Returns [false] if the
    pool failed to quiesce within [timeout_s] (default 10) — queues are
    closed anyway, but stuck domains are not joined. Call once, last. *)
val shutdown : ?timeout_s:float -> t -> bool

(** Combined stdout of all workers (deterministic worker order, not
    global emission order — wall-clock interleaving is not replayable). *)
val output : t -> string

(** The shared executor: differential tests read final heap and global
    state through it. *)
val exec : t -> Exec.t

(** Number of domains spawned so far (0 before the first entry call). *)
val domain_count : t -> int

(** Executed instructions summed over the base executor and all workers.
    Call between requests (quiescent pool) for an exact count. *)
val total_steps : t -> int

(** Runtime state still held for activations: sequence-agreement entries
    ({!Dispatch.pending}) and workers holding a chunk frame (an activation
    and, with it, its barrier state). Both are zero after [call_entry]
    returns on an otherwise idle pool. *)
val agreement_entries : t -> int

val held_frames : t -> int

(** §8 extension: inject a forged spawn message into a partition's queue.
    The valid-spawn-target guard rejects it at dequeue, in the target
    partition. *)
val inject_spawn :
  t -> ?thread:int -> color:Color.t -> chunk:string -> Rvalue.t list ->
  (unit, string) result

val set_spawn_guard : t -> bool -> unit

(** Attach a telemetry recorder; events carry wall-clock microseconds
    since this call. Attach before the first entry call — workers
    created earlier recorded nothing. *)
val set_telemetry : t -> Tel.Recorder.t -> unit

(** {2 Observability (lib/obs)}

    Always-on unless [PRIVAGIC_OBS=off]: each worker owns a
    {!Privagic_obs.Lane} (phase accounting over run / pump-wait /
    queue-wait / barrier / park plus an event ring). Snapshots taken
    while the pool is active are monitoring-grade (at most one in-flight
    transition stale per lane); after [call_entry] returns or [shutdown]
    joins the domains they are exact. *)

(** Per-worker lanes in deterministic (lane, color) order; empty with
    obs off or before the first worker starts. *)
val obs_lanes : t -> Privagic_obs.Lane.t list

(** Phase decomposition of each lane's wall time, snapshotted now. *)
val lane_breakdowns : t -> Privagic_obs.Lane.breakdown list

(** All worker rings merged into one deterministic timeline. Call on a
    quiescent pool (see {!Privagic_obs.Ring.merge}). *)
val obs_events : t -> Privagic_obs.Ring.event array

(** Extern dispatches summed over the base executor and all workers. *)
val total_externs : t -> int

(** Declassification calls per color name, off the shared extern path
    (sorted by color). *)
val declass_counts : t -> (string * int) list

(** Register the pool's gauges (domains, inflight, steps, externs,
    per-lane phase times, per-color declassify counts, ring drops) on a
    registry. The gauges sample the live pool at exposition time. *)
val register_obs : t -> Privagic_obs.Registry.t -> unit
