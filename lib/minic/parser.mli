(** Recursive-descent parser for mini-C. Deviations from C are documented
    in the implementation header (one 64-bit [int], the color qualifier
    after the base type or a [*], [entry]/[within]/[ignore] annotations,
    [spawn f(args)] for threads). *)

open Privagic_pir

exception Error of Loc.t * string

(** @raise Error on syntax errors, [Lexer.Error] on lexical ones. *)
val parse_program : ?file:string -> string -> Ast.program
