(** Source locations, threaded from the mini-C frontend into PIR so that
    secure-typing diagnostics point back at the offending source line. *)

type t = { file : string; line : int; col : int }

val none : t
val make : file:string -> line:int -> col:int -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
