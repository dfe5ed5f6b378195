(** The secure type system of Privagic (paper §5–§6, Table 3).

    [run] analyzes a whole PIR module: it assigns to every SSA register a
    *value color* (which enclave's secret the value carries) and to every
    instruction an *executing color* (which partition runs it); pointer
    registers additionally carry a *memory color* (where the designated
    memory lives — the paper's "a pointer to a C location is itself C").
    Functions are specialized per call-site argument colors (§6.2); the
    stabilizing algorithm (§5.2) repeats whole-module passes until no
    color changes, then a final pass collects diagnostics. *)

open Privagic_pir

(** A specialization key: the function plus the colors of its actual
    arguments. *)
type instance_key = { ik_func : string; ik_args : Color.t list }

(** Display name: ["f"] when all arguments are F, else ["f@blue,F"]. *)
val instance_name : instance_key -> string

(** One analyzed specialization. The hash tables expose the final coloring
    to the partitioner. *)
type instance = {
  key : instance_key;
  iname : string;
  func : Func.t;                           (** shared, not copied *)
  reg_tys : (int, Ty.t) Hashtbl.t;
  reg_color : (int, Color.t) Hashtbl.t;    (** value colors *)
  ptr_mem : (int, Color.t) Hashtbl.t;      (** memory colors of pointers *)
  instr_color : (int, Color.t) Hashtbl.t;  (** executing colors *)
  block_color : (string, Color.t) Hashtbl.t; (** rule-4 region colors *)
  mutable ret_color : Color.t;
  mutable ret_mem : Color.t option;
  cfg : Cfg.t;
  pdom : Dom.t;
}

(** Whole-module analysis state and result. *)
type t = {
  mode : Mode.t;
  auth : bool;  (** §8 extension: authenticated indirection pointers *)
  m : Pmodule.t;
  instances : (instance_key, instance) Hashtbl.t;
  mutable order : instance_key list;
  call_sites : (instance_key * int, instance_key) Hashtbl.t;
  mutable diagnostics : Diagnostic.t list;
  mutable changed : bool;
  mutable collect : bool;
}

(** Analyze a module. Roots are the module's entry points (explicit
    [entry] annotations, or every defined function in library mode) plus
    every address-taken function (§6.3). *)
val run : ?mode:Mode.t -> ?auth_pointers:bool -> Pmodule.t -> t

(** No diagnostics were produced. *)
val ok : t -> bool

(** Instances in creation order. *)
val instances : t -> instance list

val find_instance : t -> string -> Color.t list -> instance option

(** Callee instance resolved at a call/spawn site (keyed by the caller
    instance and the instruction id). *)
val call_site : t -> instance_key -> int -> instance_key option

(** Final executing color of an instruction. *)
val instruction_color : instance -> Instr.t -> Color.t

(** Colorset of an instance (§7.3.1): the executing colors of its
    instructions plus its argument colors, F and S excluded. *)
val colorset : instance -> Color.Set.t

val pp_report : Format.formatter -> t -> unit
