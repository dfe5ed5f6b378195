(* Runtime observability (§8.12 in DESIGN.md): one event store — a ring
   per writer ({!Ring}, vocabulary {!Ev}) — its readers (Chrome trace,
   summary, critical path, schedule), per-lane phase accounting and the
   metrics registry.

   This root module owns the process-wide state: the obs epoch (all
   wall-clock rings stamp against one clock) and the switch of the
   always-on lanes. It defaults to on; PRIVAGIC_OBS=off exists so the CI
   overhead gate has an off-state to compare against. *)

module Phase = Phase
module Ev = Ev
module Ring = Ring
module Lane = Lane
module Metrics = Metrics
module Registry = Registry
module Chrome_trace = Chrome_trace
module Critical_path = Critical_path
module Summary = Summary
module Schedule = Schedule

let enabled_ref =
  ref
    (match Sys.getenv_opt "PRIVAGIC_OBS" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

(* Process obs epoch: all wall-clock timestamps are integer microseconds
   since this instant (see clock.ml — Ring's amortized clock shares it). *)
let epoch = Clock.epoch
let now_us = Clock.now_us
