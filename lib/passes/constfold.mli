(** Constant folding and branch simplification to a fixed point: folds
    arithmetic/comparisons/casts/selects over constants, simplifies phis
    whose entries agree, and turns conditional branches on constants into
    jumps (then prunes the dead arm). Color-neutral: constants are F.
    Returns the number of folds. *)

val run : Privagic_pir.Pmodule.t -> int
