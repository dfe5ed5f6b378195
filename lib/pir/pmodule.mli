(** A PIR module: struct definitions, globals, function definitions and
    external declarations — the whole-program artifact Privagic consumes
    (paper §5, Figure 5). *)

type struct_def = { sname : string; fields : (string * Ty.t) list }

type global = {
  gname : string;
  gty : Ty.t;                     (** may carry a color *)
  ginit : Value.t option;
  gloc : Loc.t;
}

type extern_decl = {
  ename : string;
  esig : Ty.t;                    (** a [Fun] type *)
  eannots : Annot.t list;
}

type t = {
  structs : (string, struct_def) Hashtbl.t;
  globals : (string, global) Hashtbl.t;
  funcs : (string, Func.t) Hashtbl.t;
  externs : (string, extern_decl) Hashtbl.t;
  mutable entry_points : string list;
}

val create : unit -> t

val add_struct : t -> struct_def -> unit
val find_struct : t -> string -> struct_def option
val find_struct_exn : t -> string -> struct_def
val field_ty : t -> string -> int -> Ty.t

val add_global : t -> global -> unit
val find_global : t -> string -> global option

val add_func : t -> Func.t -> unit
val find_func : t -> string -> Func.t option
val find_func_exn : t -> string -> Func.t

val add_extern : t -> extern_decl -> unit
val find_extern : t -> string -> extern_decl option
val is_defined : t -> string -> bool

(** Analysis roots (§6.2): the explicit entry list when the developer gave
    one, otherwise every defined function (library mode). *)
val entry_points : t -> string list

val set_entry_points : t -> string list -> unit

(** Byte size with the plain (non-rewritten) layout; the VM's [Layout]
    owns the §7.2-rewritten sizes. *)
val sizeof : t -> Ty.t -> int

val iter_funcs : t -> (Func.t -> unit) -> unit
val funcs_sorted : t -> Func.t list
val globals_sorted : t -> global list
val structs_sorted : t -> struct_def list

val to_string : t -> string
