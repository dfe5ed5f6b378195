(** Figure 8: memcached-lite under YCSB, throughput and latency as the
    dataset grows, for Unprotected / Scone / Privagic. Runs on
    [machine_b_scaled] so the sweep crosses the LLC and EPC boundaries at
    simulable sizes (DESIGN.md §8.3). *)

module System = Privagic_baselines.System
module Sgx = Privagic_sgx

type point = { dataset_mib : float; results : Kv.result list }

val run :
  ?config:Sgx.Config.t -> ?cost:Sgx.Cost.t -> ?sizes_mib:int list ->
  ?operations:int -> ?vsize:int -> unit -> point list

val report : point list -> Report.t
