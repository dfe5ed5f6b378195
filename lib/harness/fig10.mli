(** Figure 10: the two-color hashmap (keys blue, values red) in relaxed
    mode on machine A — latency of Unprotected vs Privagic-2 vs
    Intel-sdk-2. *)

module System = Privagic_baselines.System
module Sgx = Privagic_sgx

val run :
  ?config:Sgx.Config.t -> ?cost:Sgx.Cost.t -> ?record_count:int ->
  ?operations:int -> ?vsize:int -> unit -> Kv.result list

val report : Kv.result list -> Report.t
