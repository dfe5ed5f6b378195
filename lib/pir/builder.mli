(** Imperative construction of PIR functions.

    A builder owns one function and a current insertion block; [instr]
    appends to the current block and returns the operand naming the result.
    Used by the mini-C lowering and by the tests to build IR directly. *)

type t

(** [create m f] makes a builder for function [f] of module [m], positioned
    at a fresh entry block. The function is registered in [m]. *)
val create : Pmodule.t -> Func.t -> t

(** [block b label] creates (and returns the label of) a new empty block.
    Labels are uniquified with a counter. *)
val block : t -> string -> string

(** Move the insertion point to an existing block. *)
val position : t -> string -> unit

val current_label : t -> string

(** Append an instruction computing a value of type [ty]; returns the operand
    for its result register. *)
val instr : ?loc:Loc.t -> t -> Ty.t -> Instr.op -> Value.t

(** Append a void instruction (store or void call). *)
val effect : ?loc:Loc.t -> t -> Instr.op -> unit

(** Whether the current block already has a terminator. *)
val terminated : t -> bool

(** Convenience wrappers. *)

val alloca : ?loc:Loc.t -> t -> Ty.t -> Value.t
val load : ?loc:Loc.t -> t -> Ty.t -> Value.t -> Value.t
val store : ?loc:Loc.t -> t -> Value.t -> Value.t -> unit
val binop : ?loc:Loc.t -> t -> Instr.binop -> Ty.t -> Value.t -> Value.t -> Value.t
val icmp : ?loc:Loc.t -> t -> Instr.icmp -> Value.t -> Value.t -> Value.t
val call : ?loc:Loc.t -> t -> Ty.t -> string -> Value.t list -> Value.t
val gep : ?loc:Loc.t -> t -> ty:Ty.t -> pointee:Ty.t -> Value.t -> Instr.gep_step list -> Value.t
val phi : ?loc:Loc.t -> t -> Ty.t -> (string * Value.t) list -> Value.t
val br : t -> string -> unit
val condbr : t -> Value.t -> string -> string -> unit
val ret : t -> Value.t option -> unit
