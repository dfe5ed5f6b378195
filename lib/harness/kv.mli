(** Generic key-value benchmark runner: load a dataset into one of the
    evaluation programs under a system configuration, replay a YCSB
    workload, report throughput / latency / cache statistics in
    deterministic simulated time. *)

module Sgx = Privagic_sgx
module Ycsb = Privagic_workloads.Ycsb
module Programs = Privagic_workloads.Programs
module System = Privagic_baselines.System

type family = Hashmap | Linked_list | Rbtree | Hashmap2 | Memcached

val family_name : family -> string

(** [(put, get)] entry names of a family. *)
val entries : family -> string * string

val source :
  family -> Programs.variant -> nbuckets:int -> vsize:int -> string

(** The mode a family needs: two colors in one structure require relaxed
    mode (§8). *)
val mode_for : family -> Privagic_secure.Mode.t

type result = {
  family : family;
  system : string;
  record_count : int;
  dataset_bytes : int;
  operations : int;
  throughput_kops : float;
  mean_latency_us : float;
  p_found : float;          (** sanity: fraction of successful reads *)
  llc_miss_ratio : float;
  queue_msgs : int;
  ecalls_switchless : int;
}

(** The [`Colored] variant of a family, checked and partitioned under
    {!mode_for}. @raise Invalid_argument if the checker or the
    partitioner rejects it. *)
val plan_for :
  family -> nbuckets:int -> vsize:int -> Privagic_partition.Plan.t

(** Host-speed replay of the YCSB-B protocol through [call] on a store
    whose unsafe memory is [heap]: allocates the value and output
    buffers (and runs [mc_init] for {!Memcached}), then returns one pass
    that puts every record and replays [operations] operations. A pass
    returns the steps it executed, read from [steps], and its wall
    seconds. The first pass inserts; later ones overwrite in place, so
    they all execute the same instruction sequence. *)
val replay_pass :
  call:(string -> Privagic_vm.Rvalue.t list -> Privagic_vm.Rvalue.t) ->
  steps:(unit -> int) ->
  heap:Privagic_vm.Heap.t ->
  family ->
  records:int ->
  operations:int ->
  vsize:int ->
  unit ->
  int * float

val run :
  ?config:Sgx.Config.t ->
  ?cost:Sgx.Cost.t ->
  ?nbuckets:int ->
  ?vsize:int ->
  ?distribution:Ycsb.distribution ->
  ?auth_pointers:bool ->
  family ->
  System.kind ->
  record_count:int ->
  operations:int ->
  unit ->
  result
