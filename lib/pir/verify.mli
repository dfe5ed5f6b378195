(** Structural well-formedness checks for PIR modules, run after the
    frontend and after every rewriting pass: unique register definitions,
    uses of defined registers, existing branch targets, phi/predecessor
    agreement, call arities, known globals. A violation is a compiler bug,
    not a user error. *)

val check_module : Pmodule.t -> (unit, string list) result

exception Invalid of string list

val check_module_exn : Pmodule.t -> unit
