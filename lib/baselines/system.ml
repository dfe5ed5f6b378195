(* The four system configurations of the evaluation (§9.2-§9.3), exposed as
   one uniform driver interface over a compiled mini-C program:

   - Unprotected: the plain program, normal CPU mode, data in normal memory
     (the docker-container baseline);
   - Scone: the *whole* plain program and all its data inside one enclave;
     syscalls become in-enclave switchless calls; large datasets overflow
     the EPC;
   - Privagic: the colored program, checked, partitioned, and run by the
     partitioned interpreter with lock-free-queue crossings;
   - Intel_sdk: the EDL port — every exported operation is one
     lock-based switchless ECALL into an enclave that holds the data
     structure (one enclave per color; crossings at switchless price). *)

open Privagic_secure
module Sgx = Privagic_sgx
open Privagic_vm

type kind =
  | Unprotected
  | Scone
  | Privagic of Mode.t
  | Intel_sdk of Mode.t

let kind_name = function
  | Unprotected -> "unprotected"
  | Scone -> "scone"
  | Privagic Mode.Hardened -> "privagic-hardened"
  | Privagic Mode.Relaxed -> "privagic-relaxed"
  | Intel_sdk Mode.Hardened -> "intel-sdk"
  | Intel_sdk Mode.Relaxed -> "intel-sdk-relaxed"

(* The program variant a system runs: Privagic needs the colored source;
   the single-enclave systems run the legacy code. The two-enclave SDK
   port (Intel-sdk-2) reuses the colored program's partition shape with
   switchless-priced crossings — see DESIGN.md. *)
let variant = function
  | Privagic _ | Intel_sdk Mode.Relaxed -> `Colored
  | Unprotected | Scone | Intel_sdk Mode.Hardened -> `Plain

type t = {
  name : string;
  kind : kind;
  machine : Sgx.Machine.t;
  call : string -> Rvalue.t list -> Rvalue.t * float; (* value, latency *)
  heap : Heap.t;
  check_diagnostics : Diagnostic.t list;
}

exception Rejected of Diagnostic.t list

let create ?(config = Sgx.Config.machine_b) ?cost ?(auth_pointers = false)
    (kind : kind) (src : string) : t =
  let m = Privagic_minic.Driver.compile ~file:"program.mc" src in
  match kind with
  | Unprotected | Scone | Intel_sdk Mode.Hardened ->
    let policy =
      match kind with
      | Unprotected -> Interp.unprotected
      | Intel_sdk _ -> Interp.intel_sdk
      | _ -> Interp.scone
    in
    let it = Interp.create ~config ?cost m policy in
    {
      name = kind_name kind;
      kind;
      machine = Interp.machine it;
      call =
        (fun entry args ->
          let before = Interp.clock it in
          let v = Interp.call it entry args in
          (v, Interp.clock it -. before));
      heap = it.Interp.exec.Exec.heap;
      check_diagnostics = [];
    }
  | Privagic mode | Intel_sdk ((Mode.Relaxed) as mode) ->
    let infer = Infer.run ~mode ~auth_pointers m in
    if not (Infer.ok infer) then raise (Rejected infer.Infer.diagnostics);
    let plan = Privagic_partition.Plan.build ~mode ~auth_pointers infer in
    if plan.Privagic_partition.Plan.diagnostics <> [] then
      raise (Rejected plan.Privagic_partition.Plan.diagnostics);
    let crossing =
      match kind with
      | Intel_sdk _ -> Sgx.Machine.switchless_cost
      | _ -> Sgx.Machine.queue_msg_cost
    in
    let pt = Pinterp.create ~config ?cost ~crossing plan in
    {
      name = kind_name kind;
      kind;
      machine = Pinterp.machine pt;
      call =
        (fun entry args ->
          let r = Pinterp.call_entry pt entry args in
          (r.Pinterp.value, r.Pinterp.latency_cycles));
      heap = pt.Pinterp.exec.Exec.heap;
      check_diagnostics = [];
    }

(* Client-side buffers in unsafe memory (the network buffers of the
   harness). *)
let alloc_buffer t size = Heap.alloc t.heap Heap.Unsafe size

let write_bytes t addr (s : string) =
  String.iteri
    (fun i c -> Heap.store t.heap (addr + i) 1 (Int64.of_int (Char.code c)))
    s
