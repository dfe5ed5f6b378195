(** Hand-written lexer for mini-C: //- and /* */-comments, decimal and
    hexadecimal integers, floats, character and string literals with the
    usual escapes. *)

open Privagic_pir

exception Error of Loc.t * string

(** Whole input, ending with [EOF].
    @raise Error on lexical errors. *)
val tokenize : ?file:string -> string -> (Token.t * Loc.t) list
