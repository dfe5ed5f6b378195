(** Secure-typing diagnostics, each mapping to one of §4's guarantees. *)

open Privagic_pir

type kind =
  | Confidentiality   (** a colored value would escape its enclave *)
  | Integrity         (** a store into an enclave from outside it *)
  | Iago              (** an enclave would consume an untrusted value *)
  | Implicit_leak     (** rule 4: leak through a conditional (Fig. 4) *)
  | Pointer_cast      (** rule 4 of §4: a pointee color would change *)
  | Multicolor_struct (** §8: multi-color structure in hardened mode *)
  | Cross_enclave_f   (** §7.3.2: an F value would cross partitions in
                          hardened mode, or a chunk reads a register
                          computed in another partition *)

type t = {
  kind : kind;
  func : string;  (** specialized instance name, e.g. ["f@blue"] *)
  loc : Loc.t;
  msg : string;
}

val make : kind:kind -> func:string -> loc:Loc.t -> string -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
