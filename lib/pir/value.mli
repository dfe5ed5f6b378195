(** PIR operands.

    An operand is either an SSA register (identified per-function by a small
    integer), a constant, or a reference to a module-level symbol. *)

type t =
  | Reg of int                 (** SSA register *)
  | Int of int64 * Ty.t        (** integer constant of type I1/I8/I64 *)
  | Float of float
  | Str of string              (** pointer to a read-only string in U memory *)
  | Global of string           (** address of a global variable *)
  | Func of string             (** address of a function (function pointer) *)
  | Null of Ty.t               (** null pointer of the given pointer type *)
  | Undef of Ty.t

val reg : int -> t
val int_ : int64 -> t
val of_int : int -> t
val float_ : float -> t

(** Registers mentioned by the operand (0 or 1). *)
val regs : t -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
