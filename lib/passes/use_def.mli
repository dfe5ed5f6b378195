(** Use-def and def-use chains over a function — the "simple use-def chain
    analysis" behind the paper's restricted type inference (§1). *)

open Privagic_pir

type t

val of_func : Func.t -> t

(** Defining instruction of a register ([None] for parameters). *)
val def : t -> int -> Instr.t option

val def_block : t -> int -> string option
val uses_of : t -> int -> Instr.t list
val is_param : t -> int -> bool
