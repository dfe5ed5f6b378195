(* A PIR function. Parameters occupy SSA registers [0 .. arity-1]; the
   instruction stream allocates registers from [next_reg] upward. Parameter
   types may carry colors (explicit secure types on arguments). *)

type t = {
  name : string;
  params : (string * Ty.t) list;
  ret : Ty.t;
  mutable blocks : Block.t list;
  annots : Annot.t list;
  mutable next_reg : int;
}

let make ?(annots = []) ~name ~params ~ret () =
  { name; params; ret; blocks = []; annots; next_reg = List.length params }

let arity f = List.length f.params

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let entry_block f =
  match f.blocks with
  | [] -> invalid_arg (Printf.sprintf "Func.entry_block: %s has no blocks" f.name)
  | b :: _ -> b

let find_block f label =
  List.find_opt (fun (b : Block.t) -> String.equal b.label label) f.blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Func.find_block: no block %%%s in %s" label f.name)

let iter_instrs f fn =
  List.iter (fun (b : Block.t) -> List.iter (fn b) b.instrs) f.blocks

let fold_instrs f fn acc =
  List.fold_left
    (fun acc (b : Block.t) ->
      List.fold_left (fun acc i -> fn acc b i) acc b.instrs)
    acc f.blocks

let instr_count f = fold_instrs f (fun n _ _ -> n + 1) 0

let pp fmt f =
  let pp_param fmt (name, ty) = Format.fprintf fmt "%a %%%s" Ty.pp ty name in
  Format.fprintf fmt "define %a @%s(%a)%s {@." Ty.pp f.ret f.name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_param)
    f.params
    (match f.annots with
    | [] -> ""
    | l -> " " ^ String.concat " " (List.map Annot.to_string l));
  List.iter (fun b -> Block.pp fmt b) f.blocks;
  Format.fprintf fmt "}@."
