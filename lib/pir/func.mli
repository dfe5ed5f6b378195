(** PIR functions. Parameters occupy SSA registers [0 .. arity-1]; the
    instruction stream allocates registers from [next_reg] upward.
    Parameter types may carry colors (explicit secure types on
    arguments). *)

type t = {
  name : string;
  params : (string * Ty.t) list;
  ret : Ty.t;
  mutable blocks : Block.t list;
  annots : Annot.t list;
  mutable next_reg : int;
}

val make :
  ?annots:Annot.t list ->
  name:string ->
  params:(string * Ty.t) list ->
  ret:Ty.t ->
  unit ->
  t

val arity : t -> int

(** Allocate a fresh SSA register id. *)
val fresh_reg : t -> int

(** @raise Invalid_argument if the function has no blocks. *)
val entry_block : t -> Block.t

val find_block : t -> string -> Block.t option
val find_block_exn : t -> string -> Block.t

(** Iterate the instructions in block order; the callback receives the
    enclosing block. *)
val iter_instrs : t -> (Block.t -> Instr.t -> unit) -> unit

val instr_count : t -> int

val pp : Format.formatter -> t -> unit
