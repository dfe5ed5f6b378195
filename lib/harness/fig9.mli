(** Figure 9: the three data structures protected with one color on
    machine A — Unprotected vs Privagic-1 vs Intel-sdk-1. Zipfian access
    for the hashmap, uniform for treemap/list (§9.3.2). *)

module System = Privagic_baselines.System
module Sgx = Privagic_sgx

type row = { family : Kv.family; results : Kv.result list }

(** [spec]: [(family, record_count, operations)] per structure. *)
val run :
  ?config:Sgx.Config.t -> ?cost:Sgx.Cost.t ->
  ?spec:(Kv.family * int * int) list -> ?vsize:int -> unit -> row list

val report : row list -> Report.t
