type t =
  | Reg of int
  | Int of int64 * Ty.t
  | Float of float
  | Str of string
  | Global of string
  | Func of string
  | Null of Ty.t
  | Undef of Ty.t

let reg i = Reg i
let int_ i = Int (i, Ty.i64)
let of_int i = Int (Int64.of_int i, Ty.i64)
let float_ f = Float f

let regs = function Reg i -> [ i ] | _ -> []

let pp fmt = function
  | Reg i -> Format.fprintf fmt "%%%d" i
  | Int (i, ty) ->
    if Ty.equal ty Ty.i1 then
      Format.pp_print_string fmt (if Int64.equal i 0L then "false" else "true")
    else Format.fprintf fmt "%Ld" i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Global g -> Format.fprintf fmt "@%s" g
  | Func f -> Format.fprintf fmt "@%s" f
  | Null _ -> Format.pp_print_string fmt "null"
  | Undef _ -> Format.pp_print_string fmt "undef"

let to_string v = Format.asprintf "%a" pp v
