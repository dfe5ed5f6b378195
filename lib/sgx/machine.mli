(** The simulated machine: cache hierarchy, EPC working set, cost and
    event counters. The VM charges every simulated memory access and every
    control event here and adds the returned cycles to the current
    worker's virtual clock. *)

type zone = Normal | Enclave of string

type counters = {
  mutable instrs : int;
  mutable mem_accesses : int;
  mutable l1_misses : int;
  mutable llc_misses : int;
  mutable enclave_llc_misses : int;
  mutable epc_faults : int;
  mutable ecalls : int;
  mutable switchless_calls : int;
  mutable queue_msgs : int;
  mutable syscalls : int;
  mutable enclave_syscalls : int;
  mutable threads_spawned : int;
}

(** A traced VM's ring: events land on [track], the worker the VM runs,
    at [now ()], that worker's clock as a ring timestamp. *)
type tap = {
  ring : Privagic_obs.Ring.t;
  mutable track : int;
  now : unit -> int;
}

type t = {
  config : Config.t;
  cost : Cost.t;
  l1 : Cache.t;
  llc : Cache.t;
  epc : Cache.t;
  c : counters;
  mutable tap : tap option;
}

val create : ?cost:Cost.t -> Config.t -> t

(** Attach a ring tap: transition and fault events (ecalls, ocalls,
    switchless calls, queue messages, EPC faults, thread spawns) are
    recorded at the tap's track and clock. *)
val set_tap : t -> tap -> unit

val instr_cost : t -> int -> float

(** [mem_cost m ~cpu ~data addr size]: [cpu] is the processor mode (misses
    taken in enclave mode pay the Eleos multiplier), [data] is where the
    memory lives (enclave pages occupy EPC and may fault). *)
val mem_cost : t -> cpu:zone -> data:zone -> int -> int -> float

val ecall_cost : t -> float
val switchless_cost : t -> float
val queue_msg_cost : t -> float
val syscall_cost : t -> zone:zone -> float
val thread_spawn_cost : t -> float
val counters : t -> counters
val llc_miss_ratio : t -> float

(** Convert cycles to seconds at this machine's frequency. *)
val seconds : t -> float -> float

val reset_stats : t -> unit
