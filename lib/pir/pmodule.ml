(* A PIR module: struct definitions, globals, function definitions, and
   external declarations — the equivalent of the whole-program LLVM bitcode
   file Privagic takes as input (paper §5, Figure 5). *)

type struct_def = { sname : string; fields : (string * Ty.t) list }

type global = {
  gname : string;
  gty : Ty.t;                     (* may carry a color *)
  ginit : Value.t option;
  gloc : Loc.t;
}

type extern_decl = {
  ename : string;
  esig : Ty.t;                    (* Fun type *)
  eannots : Annot.t list;
}

type t = {
  structs : (string, struct_def) Hashtbl.t;
  globals : (string, global) Hashtbl.t;
  funcs : (string, Func.t) Hashtbl.t;
  externs : (string, extern_decl) Hashtbl.t;
  mutable entry_points : string list;
      (* explicit entry points; empty means "every function" (library mode) *)
}

let create () =
  {
    structs = Hashtbl.create 16;
    globals = Hashtbl.create 16;
    funcs = Hashtbl.create 16;
    externs = Hashtbl.create 16;
    entry_points = [];
  }

let add_struct m (s : struct_def) = Hashtbl.replace m.structs s.sname s

let find_struct m name = Hashtbl.find_opt m.structs name

let find_struct_exn m name =
  match find_struct m name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Pmodule.find_struct: %%%s" name)

let field_ty m sname k =
  let s = find_struct_exn m sname in
  match List.nth_opt s.fields k with
  | Some (_, ty) -> ty
  | None ->
    invalid_arg (Printf.sprintf "Pmodule.field_ty: %%%s has no field %d" sname k)

let add_global m (g : global) = Hashtbl.replace m.globals g.gname g

let find_global m name = Hashtbl.find_opt m.globals name

let add_func m (f : Func.t) = Hashtbl.replace m.funcs f.Func.name f

let find_func m name = Hashtbl.find_opt m.funcs name

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Pmodule.find_func: @%s" name)

let add_extern m (e : extern_decl) = Hashtbl.replace m.externs e.ename e

let find_extern m name = Hashtbl.find_opt m.externs name

let is_defined m name = Hashtbl.mem m.funcs name

(* Entry points for the analysis (paper §6.2): the explicit list if the
   developer gave one, otherwise every defined function (the conservative
   "any extern function may be called from another project" default). *)
let entry_points m =
  match m.entry_points with
  | [] -> Hashtbl.fold (fun name _ acc -> name :: acc) m.funcs []
  | l -> l

let set_entry_points m l = m.entry_points <- l

let struct_field_tys m name =
  List.map snd (find_struct_exn m name).fields

let sizeof m ty = Ty.sizeof ~structs:(struct_field_tys m) ty

let iter_funcs m fn = Hashtbl.iter (fun _ f -> fn f) m.funcs

let funcs_sorted m =
  Hashtbl.fold (fun _ f acc -> f :: acc) m.funcs []
  |> List.sort (fun (a : Func.t) b -> String.compare a.name b.name)

let globals_sorted m =
  Hashtbl.fold (fun _ g acc -> g :: acc) m.globals []
  |> List.sort (fun a b -> String.compare a.gname b.gname)

let structs_sorted m =
  Hashtbl.fold (fun _ s acc -> s :: acc) m.structs []
  |> List.sort (fun a b -> String.compare a.sname b.sname)

let externs_sorted m =
  Hashtbl.fold (fun _ e acc -> e :: acc) m.externs []
  |> List.sort (fun a b -> String.compare a.ename b.ename)

let pp fmt m =
  List.iter
    (fun s ->
      Format.fprintf fmt "%%%s = type { %a }@." s.sname
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (fun fmt (n, ty) -> Format.fprintf fmt "%s: %a" n Ty.pp ty))
        s.fields)
    (structs_sorted m);
  List.iter
    (fun g ->
      Format.fprintf fmt "@%s = global %a%s@." g.gname Ty.pp g.gty
        (match g.ginit with
        | None -> ""
        | Some v -> " " ^ Value.to_string v))
    (globals_sorted m);
  List.iter
    (fun e ->
      Format.fprintf fmt "declare @%s : %a%s@." e.ename Ty.pp e.esig
        (match e.eannots with
        | [] -> ""
        | l -> " " ^ String.concat " " (List.map Annot.to_string l)))
    (externs_sorted m);
  List.iter (fun f -> Func.pp fmt f) (funcs_sorted m)

let to_string m = Format.asprintf "%a" pp m
