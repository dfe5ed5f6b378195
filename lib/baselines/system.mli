(** The system configurations of the evaluation (§9.2–§9.3) behind one
    driver interface over a compiled mini-C program. *)

open Privagic_secure
module Sgx = Privagic_sgx
open Privagic_vm

type kind =
  | Unprotected
      (** the plain program, normal CPU mode, data in normal memory *)
  | Scone
      (** the whole program and its data in one enclave; syscalls become
          in-enclave switchless calls; large datasets overflow the EPC *)
  | Privagic of Mode.t
      (** checked, partitioned, run with lock-free-queue crossings *)
  | Intel_sdk of Mode.t
      (** [Hardened]: the single-enclave EDL port — one lock-based
          switchless ECALL per exported operation, data in the enclave.
          [Relaxed]: the two-enclave port — the partitioned execution
          shape with switchless-priced crossings. *)

(** Which program variant the system runs: Privagic and the two-enclave
    SDK port need the colored source; the others run the legacy code. *)
val variant : kind -> [ `Colored | `Plain ]

type t = {
  name : string;
  kind : kind;
  machine : Sgx.Machine.t;
  call : string -> Rvalue.t list -> Rvalue.t * float;
      (** [(value, latency in simulated cycles)] *)
  heap : Heap.t;
  check_diagnostics : Diagnostic.t list;
}

exception Rejected of Diagnostic.t list
(** The Privagic checker refused the program. *)

(** The VM runs on [Privagic_vm.Exec.default_engine ()]. *)
val create :
  ?config:Sgx.Config.t -> ?cost:Sgx.Cost.t -> ?auth_pointers:bool ->
  kind -> string -> t

(** Client-side buffers in unsafe memory (the harness's network buffers). *)
val alloc_buffer : t -> int -> int

val write_bytes : t -> int -> string -> unit
