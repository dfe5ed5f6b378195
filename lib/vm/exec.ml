(* Instruction-level executor shared by the plain interpreter (Interp) and
   the partitioned interpreter (Pinterp). The driver supplies hooks for
   everything that differs between the two: call dispatch, thread spawning,
   per-instruction preludes (barriers), and stack-slot placement.

   Every instruction charges [cycles_per_instr]; every memory access goes
   through the cache model with the current CPU zone (enclave or normal)
   and the zone the data lives in. *)

open Privagic_pir
module Sgx = Privagic_sgx
module Vclock = Privagic_runtime.Vclock

exception Trap of string

(* Which executor runs function bodies: the original tree-walker, or the
   index-resolved loop over the flattened image (see Image). The image is
   the default; the walker stays as the differential oracle behind
   [--engine=walk] / PRIVAGIC_ENGINE=walk. *)
type engine = Walk | Image

let engine_of_string = function
  | "walk" -> Some Walk
  | "image" -> Some Image
  | _ -> None

let engine_name = function Walk -> "walk" | Image -> "image"

let default_engine () =
  match Sys.getenv_opt "PRIVAGIC_ENGINE" with
  | Some s -> (
    match engine_of_string (String.lowercase_ascii (String.trim s)) with
    | Some e -> e
    | None -> invalid_arg ("PRIVAGIC_ENGINE: unknown engine " ^ s))
  | None -> Image

type t = {
  m : Pmodule.t;
  heap : Heap.t;
  layout : Layout.t;
  machine : Sgx.Machine.t;
  globals : (string, int) Hashtbl.t;
  func_addrs : (string, int) Hashtbl.t;  (* function pointers *)
  addr_funcs : (int, string) Hashtbl.t;
  out : Buffer.t;
  mutable cpu : Sgx.Machine.zone;
  mutable clock : Vclock.t;
  mutable current_func : string;  (* name of the function being executed *)
  mutable steps : int;
  fuel : int;
  data_map : Heap.zone -> Sgx.Machine.zone;
  mutable hooks : hooks;
  reg_ty_cache : (string, (Func.t * (int, Ty.t) Hashtbl.t) list) Hashtbl.t;
      (* keyed by name, disambiguated by physical function identity:
         specialized instances share a bare name but not their registers *)
  mutable run_func : (t -> Func.t -> Rvalue.t array -> Rvalue.t) option;
      (* installed by Image.install; None runs the tree-walker *)
  mutable extern_tap : (t -> string -> Rvalue.t array -> unit) option;
      (* trace monitor hook (lib/robust): observes every external call
         before it executes — declassification authorization, program
         output, simulated network sends. Copied by [clone_shared], so
         parallel workers inherit the monitor. *)
  mutable externs : int; (* extern dispatches retired on this executor *)
  declass : (string, int ref) Hashtbl.t;
      (* declassification calls per color name; per-executor (parallel
         workers each own one), summed at metrics registration *)
  mutable obs_ring : Privagic_obs.Ring.t option;
      (* when attached, extern dispatches drop a point event here; None
         keeps the obs-off dispatch path a single int increment *)
}

and hooks = {
  h_call : t -> Instr.t -> string -> Rvalue.t array -> Rvalue.t;
  h_callind : t -> Instr.t -> Rvalue.t -> Rvalue.t array -> Rvalue.t;
  h_spawn : t -> Instr.t -> string -> Rvalue.t array -> unit;
  h_pre_instr : t -> Instr.t -> unit;
  h_alloca_zone : t -> Ty.t -> Heap.zone;
}

let default_data_map : Heap.zone -> Sgx.Machine.zone = function
  | Heap.Enclave e -> Sgx.Machine.Enclave e
  | Heap.Unsafe | Heap.Rodata -> Sgx.Machine.Normal

let charge t c = t.clock.Vclock.cycles <- t.clock.Vclock.cycles +. c

let charge_mem t addr size =
  let data =
    match Heap.zone_of t.heap addr with
    | z -> t.data_map z
    | exception Heap.Fault _ -> Sgx.Machine.Normal
  in
  charge t (Sgx.Machine.mem_cost t.machine ~cpu:t.cpu ~data addr size)

(* Charging a bulk byte-range (memcpy-style helpers). *)
let charge_range t addr size = if size > 0 then charge_mem t addr size

let reg_tys t (f : Func.t) =
  let bucket =
    match Hashtbl.find_opt t.reg_ty_cache f.Func.name with
    | Some l -> l
    | None -> []
  in
  match List.find_opt (fun (g, _) -> g == f) bucket with
  | Some (_, tbl) -> tbl
  | None ->
    let tbl = Privagic_secure.Cenv.reg_types f in
    Hashtbl.replace t.reg_ty_cache f.Func.name ((f, tbl) :: bucket);
    tbl

let create ?(fuel = 500_000_000) ?(data_map = default_data_map) m heap layout
    machine hooks =
  {
    m;
    heap;
    layout;
    machine;
    globals = Hashtbl.create 16;
    func_addrs = Hashtbl.create 16;
    addr_funcs = Hashtbl.create 16;
    out = Buffer.create 256;
    cpu = Sgx.Machine.Normal;
    clock = Vclock.make 0.0;
    current_func = "<entry>";
    steps = 0;
    fuel;
    data_map;
    hooks;
    reg_ty_cache = Hashtbl.create 16;
    run_func = None;
    extern_tap = None;
    externs = 0;
    declass = Hashtbl.create 4;
    obs_ring = None;
  }

(* A per-worker executor for the parallel backend: shares the module, heap,
   layout and the global/function-address tables (so all workers see one
   address space) but owns its machine, clock, CPU mode, output buffer and
   hooks. The shared tables must be pre-warmed (see [warm_caches]) before
   domains start, so that at run time they are read-only. *)
let clone_shared t ~machine ~hooks =
  {
    t with
    machine;
    hooks;
    out = Buffer.create 256;
    cpu = Sgx.Machine.Normal;
    clock = Vclock.make 0.0;
    current_func = "<entry>";
    steps = 0;
    externs = 0;
    declass = Hashtbl.create 4;
    obs_ring = None;
  }

(* ------------------------------------------------------------------ *)

let func_addr t name =
  match Hashtbl.find_opt t.func_addrs name with
  | Some a -> a
  | None ->
    let a = Heap.alloc t.heap Heap.Rodata 8 in
    Hashtbl.replace t.func_addrs name a;
    Hashtbl.replace t.addr_funcs a name;
    a

(* Populate the lazily-built shared tables — function addresses and the
   per-function register-type tables — for every module function plus any
   extra functions (partition chunks). After this, [func_addr] and
   [reg_tys] only read, which is what lets several domains share them
   without a lock. *)
let warm_caches t ~(extra : Func.t list) =
  Pmodule.iter_funcs t.m (fun f ->
      ignore (func_addr t f.Func.name);
      ignore (reg_tys t f));
  List.iter
    (fun (f : Func.t) ->
      ignore (func_addr t f.Func.name);
      ignore (reg_tys t f))
    extra

let size_of_ty t (ty : Ty.t) = Int.max 1 (Layout.sizeof t.layout ty)

let scalar_size (ty : Ty.t) =
  match ty.Ty.desc with
  | Ty.I1 | Ty.I8 -> 1
  | _ -> 8

(* ------------------------------------------------------------------ *)
(* frames                                                              *)

type frame = {
  func : Func.t;
  regs : Rvalue.t array;
  tys : (int, Ty.t) Hashtbl.t;
}

let operand t (fr : frame) (v : Value.t) : Rvalue.t =
  match v with
  | Value.Reg r -> fr.regs.(r)
  | Value.Int (i, _) -> Rvalue.Int i
  | Value.Float f -> Rvalue.Flt f
  | Value.Str s -> Rvalue.Ptr (Heap.intern_string t.heap s)
  | Value.Global g -> (
    match Hashtbl.find_opt t.globals g with
    | Some a -> Rvalue.Ptr a
    | None -> raise (Trap (Printf.sprintf "unknown global @%s" g)))
  | Value.Func f -> Rvalue.Ptr (func_addr t f)
  | Value.Null _ -> Rvalue.Ptr 0
  | Value.Undef _ -> Rvalue.Int 0L

let set_reg (fr : frame) id v = if id >= 0 && id < Array.length fr.regs then fr.regs.(id) <- v

(* ------------------------------------------------------------------ *)
(* arithmetic                                                          *)

let exec_binop (op : Instr.binop) (a : Rvalue.t) (b : Rvalue.t) : Rvalue.t =
  let ia () = Rvalue.to_int64 a and ib () = Rvalue.to_int64 b in
  let fa () = Rvalue.to_float a and fb () = Rvalue.to_float b in
  match op with
  | Instr.Add -> (
    (* pointer arithmetic flows through geps, but be tolerant *)
    match a, b with
    | Rvalue.Ptr p, _ -> Rvalue.Ptr (p + Rvalue.to_int b)
    | _, Rvalue.Ptr p -> Rvalue.Ptr (p + Rvalue.to_int a)
    | _ -> Rvalue.Int (Int64.add (ia ()) (ib ())))
  | Instr.Sub -> (
    match a, b with
    | Rvalue.Ptr p, Rvalue.Int _ -> Rvalue.Ptr (p - Rvalue.to_int b)
    | _ -> Rvalue.Int (Int64.sub (ia ()) (ib ())))
  | Instr.Mul -> Rvalue.Int (Int64.mul (ia ()) (ib ()))
  | Instr.Sdiv ->
    if Int64.equal (ib ()) 0L then raise (Trap "division by zero")
    else Rvalue.Int (Int64.div (ia ()) (ib ()))
  | Instr.Srem ->
    if Int64.equal (ib ()) 0L then raise (Trap "modulo by zero")
    else Rvalue.Int (Int64.rem (ia ()) (ib ()))
  | Instr.And -> Rvalue.Int (Int64.logand (ia ()) (ib ()))
  | Instr.Or -> Rvalue.Int (Int64.logor (ia ()) (ib ()))
  | Instr.Xor -> Rvalue.Int (Int64.logxor (ia ()) (ib ()))
  | Instr.Shl -> Rvalue.Int (Int64.shift_left (ia ()) (Rvalue.to_int b land 63))
  | Instr.Ashr ->
    Rvalue.Int (Int64.shift_right (ia ()) (Rvalue.to_int b land 63))
  | Instr.Fadd -> Rvalue.Flt (fa () +. fb ())
  | Instr.Fsub -> Rvalue.Flt (fa () -. fb ())
  | Instr.Fmul -> Rvalue.Flt (fa () *. fb ())
  | Instr.Fdiv -> Rvalue.Flt (fa () /. fb ())

let exec_icmp (op : Instr.icmp) (a : Rvalue.t) (b : Rvalue.t) : Rvalue.t =
  let c = Int64.compare (Rvalue.to_int64 a) (Rvalue.to_int64 b) in
  let r =
    match op with
    | Instr.Eq -> c = 0
    | Instr.Ne -> c <> 0
    | Instr.Slt -> c < 0
    | Instr.Sle -> c <= 0
    | Instr.Sgt -> c > 0
    | Instr.Sge -> c >= 0
  in
  Rvalue.Int (if r then 1L else 0L)

let exec_fcmp (op : Instr.icmp) (a : Rvalue.t) (b : Rvalue.t) : Rvalue.t =
  let x = Rvalue.to_float a and y = Rvalue.to_float b in
  let r =
    match op with
    | Instr.Eq -> x = y
    | Instr.Ne -> x <> y
    | Instr.Slt -> x < y
    | Instr.Sle -> x <= y
    | Instr.Sgt -> x > y
    | Instr.Sge -> x >= y
  in
  Rvalue.Int (if r then 1L else 0L)

let exec_cast (op : Instr.castop) (v : Rvalue.t) (ty : Ty.t) : Rvalue.t =
  match op with
  | Instr.Bitcast -> v
  | Instr.Zext -> Rvalue.Int (Rvalue.to_int64 v)
  | Instr.Trunc -> (
    let i = Rvalue.to_int64 v in
    match ty.Ty.desc with
    | Ty.I1 -> Rvalue.Int (Int64.logand i 1L)
    | Ty.I8 -> Rvalue.Int (Int64.logand i 0xffL)
    | _ -> Rvalue.Int i)
  | Instr.Sitofp -> Rvalue.Flt (Int64.to_float (Rvalue.to_int64 v))
  | Instr.Fptosi -> Rvalue.Int (Int64.of_float (Rvalue.to_float v))
  | Instr.Ptrtoint -> Rvalue.Int (Rvalue.to_int64 v)
  | Instr.Inttoptr -> Rvalue.Ptr (Rvalue.to_int v)

(* ------------------------------------------------------------------ *)
(* gep                                                                 *)

let exec_gep t (fr : frame) (pointee : Ty.t) base steps : Rvalue.t =
  let addr = ref (Rvalue.to_addr (operand t fr base)) in
  let cur = ref pointee in
  List.iter
    (fun step ->
      match step with
      | Instr.Field k -> (
        match !cur.Ty.desc with
        | Ty.Struct sname ->
          let slot_addr = Layout.field_slot_address t.layout sname k !addr in
          let faddr, indirect = Layout.field_address t.layout t.heap sname k !addr in
          if indirect then begin
            (* the indirection load; with authenticated pointers also the
               MAC word and its verification (§8 extension) *)
            if t.layout.Layout.auth then begin
              charge_mem t slot_addr 16;
              charge t t.machine.Sgx.Machine.cost.Sgx.Cost.auth_check
            end
            else charge_mem t slot_addr 8
          end;
          addr := faddr;
          cur := Pmodule.field_ty t.m sname k
        | _ -> raise (Trap "gep: field step on a non-struct"))
      | Instr.Index v -> (
        let idx = Rvalue.to_int (operand t fr v) in
        match !cur.Ty.desc with
        | Ty.Arr (elt, _) ->
          addr := !addr + (idx * size_of_ty t elt);
          cur := elt
        | _ -> addr := !addr + (idx * size_of_ty t !cur)))
    steps;
  Rvalue.Ptr !addr

(* ------------------------------------------------------------------ *)
(* loads and stores                                                    *)

let do_load t addr (ty : Ty.t) : Rvalue.t =
  let sz = scalar_size ty in
  charge_mem t addr sz;
  match ty.Ty.desc with
  | Ty.F64 -> Rvalue.Flt (Heap.load_f64 t.heap addr)
  | Ty.Ptr _ | Ty.Fun _ -> Rvalue.Ptr (Int64.to_int (Heap.load t.heap addr 8))
  | Ty.I1 | Ty.I8 -> Rvalue.Int (Heap.load t.heap addr sz)
  | _ -> Rvalue.Int (Heap.load t.heap addr 8)

let do_store t addr (ty : Ty.t) (v : Rvalue.t) =
  let sz = scalar_size ty in
  charge_mem t addr sz;
  match ty.Ty.desc with
  | Ty.F64 -> Heap.store_f64 t.heap addr (Rvalue.to_float v)
  | Ty.I1 | Ty.I8 -> Heap.store t.heap addr sz (Rvalue.to_int64 v)
  | _ -> Heap.store t.heap addr 8 (Rvalue.to_int64 v)

(* Static element type behind the pointer operand of a load/store. *)
let elem_ty t (fr : frame) (p : Value.t) (fallback : Ty.t) : Ty.t =
  match p with
  | Value.Reg r -> (
    match Hashtbl.find_opt fr.tys r with
    | Some { Ty.desc = Ty.Ptr e; _ } -> e
    | _ -> fallback)
  | Value.Global g -> (
    match Pmodule.find_global t.m g with
    | Some gl -> gl.Pmodule.gty
    | None -> fallback)
  | Value.Str _ -> Ty.i8
  | _ -> fallback

(* ------------------------------------------------------------------ *)
(* function execution                                                  *)

let rec exec_func t (f : Func.t) (args : Rvalue.t array) : Rvalue.t =
  let saved_func = t.current_func in
  t.current_func <- f.Func.name;
  let r =
    match t.run_func with
    | Some run -> run t f args
    | None -> exec_func_body t f args
  in
  t.current_func <- saved_func;
  r

(* The tree-walking executor body. Also serves as the image engine's
   fallback for functions absent from the image. *)
and exec_func_body t (f : Func.t) (args : Rvalue.t array) : Rvalue.t =
  let fr =
    { func = f; regs = Array.make (Int.max 1 f.Func.next_reg) Rvalue.zero;
      tys = reg_tys t f }
  in
  Array.iteri
    (fun k v -> if k < Array.length fr.regs then fr.regs.(k) <- v)
    args;
  let rec run_block (b : Block.t) (prev : string) : Rvalue.t =
    (* phis first, in parallel *)
    let phi_values =
      List.filter_map
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi entries -> (
            match List.assoc_opt prev entries with
            | Some v -> Some (i.Instr.id, operand t fr v)
            | None ->
              (* Verify rejects phis that miss a CFG predecessor; reaching
                 here means an unverified function — trap rather than
                 silently defaulting to zero. *)
              raise
                (Trap
                   (Printf.sprintf
                      "phi in %%%s of @%s has no entry for predecessor %%%s"
                      b.Block.label f.Func.name prev)))
          | _ -> None)
        b.Block.instrs
    in
    List.iter (fun (id, v) -> set_reg fr id v) phi_values;
    List.iter
      (fun (i : Instr.t) ->
        match i.Instr.op with Instr.Phi _ -> () | _ -> exec_instr t fr i)
      b.Block.instrs;
    match b.Block.term with
    | Instr.Br l -> run_block (Func.find_block_exn f l) b.Block.label
    | Instr.Condbr (c, tl, fl) ->
      let target = if Rvalue.truthy (operand t fr c) then tl else fl in
      run_block (Func.find_block_exn f target) b.Block.label
    | Instr.Ret None -> Rvalue.Unit
    | Instr.Ret (Some v) -> operand t fr v
    | Instr.Unreachable -> raise (Trap "unreachable executed")
  in
  run_block (Func.entry_block f) "<entry>"

and exec_instr t (fr : frame) (i : Instr.t) =
  t.steps <- t.steps + 1;
  if t.steps > t.fuel then raise (Trap "fuel exhausted");
  t.hooks.h_pre_instr t i;
  charge t (Sgx.Machine.instr_cost t.machine 1);
  match i.Instr.op with
  | Instr.Alloca ty ->
    let zone = t.hooks.h_alloca_zone t ty in
    let addr = Layout.alloc_stack t.layout t.heap zone ty in
    set_reg fr i.id (Rvalue.Ptr addr)
  | Instr.Load p ->
    let addr = Rvalue.to_addr (operand t fr p) in
    let ty = if Ty.equal i.ty Ty.void then elem_ty t fr p Ty.i64 else i.ty in
    set_reg fr i.id (do_load t addr ty)
  | Instr.Store (v, p) ->
    let addr = Rvalue.to_addr (operand t fr p) in
    let ty = elem_ty t fr p Ty.i64 in
    do_store t addr ty (operand t fr v)
  | Instr.Binop (op, a, b) ->
    set_reg fr i.id (exec_binop op (operand t fr a) (operand t fr b))
  | Instr.Icmp (op, a, b) ->
    set_reg fr i.id (exec_icmp op (operand t fr a) (operand t fr b))
  | Instr.Fcmp (op, a, b) ->
    set_reg fr i.id (exec_fcmp op (operand t fr a) (operand t fr b))
  | Instr.Cast (op, v, ty) ->
    set_reg fr i.id (exec_cast op (operand t fr v) ty)
  | Instr.Gep (pointee, base, steps) ->
    set_reg fr i.id (exec_gep t fr pointee base steps)
  | Instr.Call (callee, args) ->
    let argv = Array.of_list (List.map (operand t fr) args) in
    let r = t.hooks.h_call t i callee argv in
    if not (Ty.equal i.ty Ty.void) then set_reg fr i.id r
  | Instr.Callind (fv, args) ->
    let argv = Array.of_list (List.map (operand t fr) args) in
    let r = t.hooks.h_callind t i (operand t fr fv) argv in
    if not (Ty.equal i.ty Ty.void) then set_reg fr i.id r
  | Instr.Phi _ -> () (* handled at block entry *)
  | Instr.Select (c, a, b) ->
    set_reg fr i.id
      (if Rvalue.truthy (operand t fr c) then operand t fr a
       else operand t fr b)
  | Instr.Spawn (callee, args) ->
    let argv = Array.of_list (List.map (operand t fr) args) in
    t.hooks.h_spawn t i callee argv

(* Resolve an indirect-call target. *)
let resolve_func t (fv : Rvalue.t) : string =
  match fv with
  | Rvalue.Ptr a -> (
    match Hashtbl.find_opt t.addr_funcs a with
    | Some name -> name
    | None -> raise (Trap "indirect call to a non-function address"))
  | _ -> raise (Trap "indirect call through a non-pointer")

(* Initialize globals: allocate every global in [zone_of] its name and store
   initial values. *)
let init_globals t (zone_of : string -> Heap.zone) =
  List.iter
    (fun (g : Pmodule.global) ->
      let zone = zone_of g.Pmodule.gname in
      let addr = Layout.alloc t.layout t.heap zone g.Pmodule.gty in
      Hashtbl.replace t.globals g.Pmodule.gname addr;
      match g.Pmodule.ginit with
      | None -> ()
      | Some (Value.Int (v, ty)) ->
        Heap.store t.heap addr (scalar_size ty) v
      | Some (Value.Float f) -> Heap.store_f64 t.heap addr f
      | Some (Value.Str s) ->
        Heap.store t.heap addr 8 (Int64.of_int (Heap.intern_string t.heap s))
      | Some (Value.Null _) -> Heap.store t.heap addr 8 0L
      | Some _ -> ())
    (Pmodule.globals_sorted t.m)

(* [alloc_node2] (two-color programs, §7.2): allocate one instance of the
   struct the destination global points to — splitting multi-color fields
   across enclaves happens in [Layout.alloc] — and publish its address
   through that global. *)
let alloc_node2 t ~(zone_for : Ty.t -> Heap.zone) (i : Instr.t) :
    Rvalue.t option =
  match i.op with
  | Instr.Call ("alloc_node2", Value.Global g :: _) -> (
    match Pmodule.find_global t.m g with
    | Some gl -> (
      match gl.Pmodule.gty.Ty.desc with
      | Ty.Ptr ({ Ty.desc = Ty.Struct _; _ } as sty) ->
        let addr = Layout.alloc t.layout t.heap (zone_for sty) sty in
        let gaddr = Hashtbl.find t.globals g in
        charge_mem t gaddr 8;
        Heap.store t.heap gaddr 8 (Int64.of_int addr);
        Some Rvalue.Unit
      | _ -> None)
    | None -> None)
  | _ -> None

(* Allocation-site analysis (§7.2): a call to malloc whose result is bitcast
   to a struct pointer allocates that struct — the partitioned heap then
   splits multi-color instances. Returns (function name, call instr id) ->
   struct type. *)
let alloc_sites (m : Pmodule.t) : (string * int, Ty.t) Hashtbl.t =
  let sites = Hashtbl.create 16 in
  Pmodule.iter_funcs m (fun f ->
      (* collect malloc result registers *)
      let mallocs = Hashtbl.create 8 in
      Func.iter_instrs f (fun _ i ->
          match i.Instr.op with
          | Instr.Call ("malloc", _) -> Hashtbl.replace mallocs i.Instr.id i
          | _ -> ());
      Func.iter_instrs f (fun _ i ->
          match i.Instr.op with
          | Instr.Cast (Instr.Bitcast, Value.Reg r, ty) -> (
            match Hashtbl.find_opt mallocs r, ty.Ty.desc with
            | Some (malloc_i : Instr.t), Ty.Ptr ({ Ty.desc = Ty.Struct _; _ } as sty) ->
              Hashtbl.replace sites (f.Func.name, malloc_i.Instr.id) sty
            | _ -> ())
          | _ -> ()));
  sites
