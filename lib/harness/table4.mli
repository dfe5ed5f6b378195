(** Table 4 and §9.3.1: engineering effort (modified LoC, by diff against
    the legacy variant) and trusted computing base per program. *)

type row = {
  program : string;
  modified_lines : int;
  enclave_instrs : int;
  total_instrs : int;
  tcb_privagic_kib : int;
  tcb_scone_kib : int;
  reduction : float;
}

(** The five evaluation programs. *)
val default_rows : unit -> row list

val report : row list -> Report.t
