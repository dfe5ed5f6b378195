(* Use-def and def-use chains over a function, the "simple use-def chain
   analysis" the paper's restricted type inference relies on (§1). *)

open Privagic_pir

type t = {
  def_site : (int, Instr.t) Hashtbl.t;       (* register -> defining instr *)
  def_block : (int, string) Hashtbl.t;       (* register -> defining block *)
  uses : (int, Instr.t list) Hashtbl.t;      (* register -> using instrs *)
  param_count : int;
}

let of_func (f : Func.t) =
  let t =
    {
      def_site = Hashtbl.create 64;
      def_block = Hashtbl.create 64;
      uses = Hashtbl.create 64;
      param_count = Func.arity f;
    }
  in
  Func.iter_instrs f (fun b i ->
      (match Instr.defines i with
      | Some id ->
        Hashtbl.replace t.def_site id i;
        Hashtbl.replace t.def_block id b.Block.label
      | None -> ());
      List.iter
        (fun r ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt t.uses r) in
          Hashtbl.replace t.uses r (i :: existing))
        (Instr.uses i));
  t

let def t r = Hashtbl.find_opt t.def_site r

let def_block t r = Hashtbl.find_opt t.def_block r

let uses_of t r = Option.value ~default:[] (Hashtbl.find_opt t.uses r)

let is_param t r = r < t.param_count
