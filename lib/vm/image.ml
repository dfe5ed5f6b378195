(* The flattened linked program image (the "link" step of the runtime).

   A checked plan (or a plain module) is lowered ONCE into an immutable
   image: every function becomes a dense array of flat blocks; block
   labels, branch targets and phi predecessors are resolved to integer
   indices; operand symbols, load/store element types, gep field offsets
   and scales, allocation sites and barrier candidacy are precomputed into
   side arrays. The engine (run over the image by Exec.run_func) is then a
   tight index-resolved loop: no per-step allocation, no string hashing,
   no list scans.

   What stays deliberately *lazy* (resolved at run time, exactly like the
   tree-walker): string-literal interning and function-pointer
   materialization. Both allocate rodata on first touch, and the cache
   model is address-sensitive — resolving them eagerly at link time would
   shift heap addresses and change every virtual-time latency relative to
   the walk oracle. The parallel backend pre-warms function addresses
   (Exec.warm_caches) before domains start, in both engines alike.

   Fidelity contract: for every program the image engine must produce the
   same results, the same trap messages, the same step counts and the same
   virtual-time charges (in the same order) as the tree-walker. Functions
   the lowering cannot handle are simply left out of the image and fall
   back to the walker. *)

open Privagic_pir
open Privagic_partition
module Sgx = Privagic_sgx
module Vclock = Privagic_runtime.Vclock

(* ------------------------------------------------------------------ *)
(* image types *)

type operand =
  | OReg of int
  | OConst of Rvalue.t  (* ints, floats, null/undef, frozen global addrs *)
  | OStr of string      (* interned on first use, like the walker *)
  | OFunc of string     (* function pointer, materialized on first use *)
  | OGlobal of string   (* a global unknown at link time: traps like walk *)

type edge = { e_target : int; e_pos : int }
(* [e_pos]: the source block's index in the target's canonical predecessor
   order — the phi-input position this edge selects. -1 on function entry. *)

type lterm =
  | LBr of edge
  | LCondbr of operand * edge * edge
  | LRet_void
  | LRet of operand
  | LUnreachable

type lstep =
  | LFInline of int         (* inline field: add the precomputed offset *)
  | LFIndirect of int       (* indirection slot at offset: load + charge *)
  | LFIndirectAuth of int   (* same, slot also carries a verified MAC *)
  | LIndex of operand * int (* index operand, element size *)

type lop =
  | LAlloca of Ty.t
  | LLoad of operand * Ty.t          (* pointer, static element type *)
  | LStore of operand * operand * Ty.t  (* value, pointer, element type *)
  | LBinop of Instr.binop * operand * operand
  | LIcmp of Instr.icmp * operand * operand
  | LFcmp of Instr.icmp * operand * operand
  | LCast of Instr.castop * operand * Ty.t
  | LGep of operand * lstep array
  | LCall of string * operand array
  | LCallind of operand * operand array
  | LSelect of operand * operand * operand
  | LSpawn of string * operand array
  | LBad of string  (* statically detected type error; traps if executed *)

type lins = {
  l_instr : Instr.t;  (* the original instruction: unchanged hooks ABI *)
  l_op : lop;
  l_dst : int;        (* destination register; -1 when void *)
  l_pre : bool;       (* h_pre_instr may act here (barrier candidate) *)
}

type lphi = {
  ph_dst : int;
  ph_srcs : operand option array;
      (* indexed by predecessor position; None = the phi misses that
         CFG predecessor and executing the edge traps *)
}

type lblock = {
  lb_label : string;
  lb_preds : string array;  (* canonical predecessor labels (for traps) *)
  lb_phis : lphi array;
  lb_ins : lins array;
  lb_term : lterm;
}

type code = {
  c_func : Func.t;
  c_blocks : lblock array;
  c_nregs : int;
  c_maxphi : int;  (* widest phi row, sizes the per-frame scratch *)
}

type t = {
  codes : (string, (Func.t * code) list) Hashtbl.t;
      (* keyed by name, disambiguated by physical identity — specialized
         instances share a bare name but carry different bodies *)
  img_sites : (string * int, Ty.t) Hashtbl.t;
      (* §7.2 allocation-site analysis, hoisted to link time *)
}

let sites t = t.img_sites

(* ------------------------------------------------------------------ *)
(* lowering *)

exception Unsupported

let lower_operand (ex : Exec.t) (v : Value.t) : operand =
  match v with
  | Value.Reg r -> OReg r
  | Value.Int (i, _) -> OConst (Rvalue.Int i)
  | Value.Float f -> OConst (Rvalue.Flt f)
  | Value.Str s -> OStr s
  | Value.Global g -> (
    (* globals are allocated by init_globals before the image is built,
       so their addresses freeze into constants *)
    match Hashtbl.find_opt ex.Exec.globals g with
    | Some a -> OConst (Rvalue.Ptr a)
    | None -> OGlobal g)
  | Value.Func f -> OFunc f
  | Value.Null _ -> OConst (Rvalue.Ptr 0)
  | Value.Undef _ -> OConst (Rvalue.Int 0L)

(* Static element type behind the pointer operand of a load/store —
   the link-time twin of Exec.elem_ty. *)
let static_elem_ty (ex : Exec.t) (tys : (int, Ty.t) Hashtbl.t) (p : Value.t)
    (fallback : Ty.t) : Ty.t =
  match p with
  | Value.Reg r -> (
    match Hashtbl.find_opt tys r with
    | Some { Ty.desc = Ty.Ptr e; _ } -> e
    | _ -> fallback)
  | Value.Global g -> (
    match Pmodule.find_global ex.Exec.m g with
    | Some gl -> gl.Pmodule.gty
    | None -> fallback)
  | Value.Str _ -> Ty.i8
  | _ -> fallback

(* Gep steps: the type evolution along the step list is fully static, so
   field slots (offset, indirection, MAC) and element scales resolve at
   link time — the struct layouts are all frozen by Layout.create. A field
   step on a statically-non-struct type lowers to the walker's trap. *)
let lower_gep (ex : Exec.t) (pointee : Ty.t) (steps : Instr.gep_step list) :
    (lstep list, string) result =
  let cur = ref pointee in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Instr.Field k :: rest -> (
      match !cur.Ty.desc with
      | Ty.Struct sname ->
        let l = Layout.struct_layout ex.Exec.layout sname in
        let step =
          match l.Layout.ls_fields.(k) with
          | Layout.Inline (off, _) -> LFInline off
          | Layout.Indirect (off, _, _) ->
            if ex.Exec.layout.Layout.auth then LFIndirectAuth off
            else LFIndirect off
        in
        cur := Pmodule.field_ty ex.Exec.m sname k;
        go (step :: acc) rest
      | _ -> Error "gep: field step on a non-struct")
    | Instr.Index v :: rest ->
      let o = lower_operand ex v in
      let scale =
        match !cur.Ty.desc with
        | Ty.Arr (elt, _) ->
          cur := elt;
          Exec.size_of_ty ex elt
        | _ -> Exec.size_of_ty ex !cur
      in
      go (LIndex (o, scale) :: acc) rest
  in
  go [] steps

let lower_ins (ex : Exec.t) (tys : (int, Ty.t) Hashtbl.t)
    (pre : int -> bool) (i : Instr.t) : lins =
  let lop = lower_operand ex in
  let dst_if_value = if Ty.equal i.Instr.ty Ty.void then -1 else i.Instr.id in
  let op, dst =
    match i.Instr.op with
    | Instr.Alloca ty -> (LAlloca ty, i.Instr.id)
    | Instr.Load p ->
      let ty =
        if Ty.equal i.Instr.ty Ty.void then static_elem_ty ex tys p Ty.i64
        else i.Instr.ty
      in
      (LLoad (lop p, ty), i.Instr.id)
    | Instr.Store (v, p) ->
      (LStore (lop v, lop p, static_elem_ty ex tys p Ty.i64), -1)
    | Instr.Binop (op, a, b) -> (LBinop (op, lop a, lop b), i.Instr.id)
    | Instr.Icmp (op, a, b) -> (LIcmp (op, lop a, lop b), i.Instr.id)
    | Instr.Fcmp (op, a, b) -> (LFcmp (op, lop a, lop b), i.Instr.id)
    | Instr.Cast (op, v, ty) -> (LCast (op, lop v, ty), i.Instr.id)
    | Instr.Gep (pointee, base, steps) -> (
      match lower_gep ex pointee steps with
      | Ok ls -> (LGep (lop base, Array.of_list ls), i.Instr.id)
      | Error msg -> (LBad msg, i.Instr.id))
    | Instr.Call (callee, args) ->
      (LCall (callee, Array.of_list (List.map lop args)), dst_if_value)
    | Instr.Callind (fv, args) ->
      (LCallind (lop fv, Array.of_list (List.map lop args)), dst_if_value)
    | Instr.Phi _ -> raise Unsupported (* handled per-block *)
    | Instr.Select (c, a, b) -> (LSelect (lop c, lop a, lop b), i.Instr.id)
    | Instr.Spawn (callee, args) ->
      (LSpawn (callee, Array.of_list (List.map lop args)), -1)
  in
  { l_instr = i; l_op = op; l_dst = dst; l_pre = pre i.Instr.id }

let lower_func (ex : Exec.t) (pre : int -> bool) (f : Func.t) : code =
  let tys = Exec.reg_tys ex f in
  let blocks = Array.of_list f.Func.blocks in
  let nb = Array.length blocks in
  if nb = 0 then raise Unsupported;
  let index = Hashtbl.create (nb * 2) in
  Array.iteri
    (fun bi (b : Block.t) -> Hashtbl.replace index b.Block.label bi)
    blocks;
  (* canonical predecessor order: discovery order over blocks in layout
     order, then successors in terminator order *)
  let preds_rev = Array.make nb [] in
  Array.iteri
    (fun bi (b : Block.t) ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt index l with
          | Some ti -> preds_rev.(ti) <- bi :: preds_rev.(ti)
          | None -> raise Unsupported)
        (Block.successors b))
    blocks;
  let preds = Array.map (fun l -> Array.of_list (List.rev l)) preds_rev in
  let edge ~src l =
    match Hashtbl.find_opt index l with
    | None -> raise Unsupported
    | Some ti ->
      let ps = preds.(ti) in
      let rec find k =
        if k >= Array.length ps then raise Unsupported
        else if ps.(k) = src then k
        else find (k + 1)
      in
      { e_target = ti; e_pos = find 0 }
  in
  let maxphi = ref 0 in
  let lblocks =
    Array.mapi
      (fun bi (b : Block.t) ->
        let pred_labels =
          Array.map (fun pi -> blocks.(pi).Block.label) preds.(bi)
        in
        let phis, rest =
          List.partition
            (fun (i : Instr.t) ->
              match i.Instr.op with Instr.Phi _ -> true | _ -> false)
            b.Block.instrs
        in
        let lphis =
          Array.of_list
            (List.map
               (fun (i : Instr.t) ->
                 let entries =
                   match i.Instr.op with
                   | Instr.Phi entries -> entries
                   | _ -> assert false
                 in
                 {
                   ph_dst = i.Instr.id;
                   ph_srcs =
                     Array.map
                       (fun lbl ->
                         Option.map (lower_operand ex)
                           (List.assoc_opt lbl entries))
                       pred_labels;
                 })
               phis)
        in
        if Array.length lphis > !maxphi then maxphi := Array.length lphis;
        let lterm =
          match b.Block.term with
          | Instr.Br l -> LBr (edge ~src:bi l)
          | Instr.Condbr (c, tl, fl) ->
            LCondbr (lower_operand ex c, edge ~src:bi tl, edge ~src:bi fl)
          | Instr.Ret None -> LRet_void
          | Instr.Ret (Some v) -> LRet (lower_operand ex v)
          | Instr.Unreachable -> LUnreachable
        in
        {
          lb_label = b.Block.label;
          lb_preds = pred_labels;
          lb_phis = lphis;
          lb_ins = Array.of_list (List.map (lower_ins ex tys pre) rest);
          lb_term = lterm;
        })
      blocks
  in
  {
    c_func = f;
    c_blocks = lblocks;
    c_nregs = f.Func.next_reg;
    c_maxphi = !maxphi;
  }

(* ------------------------------------------------------------------ *)
(* building the image *)

let build ?plan ?sites (ex : Exec.t) : t =
  let img_sites =
    match sites with Some s -> s | None -> Exec.alloc_sites ex.Exec.m
  in
  (* barrier candidacy per chunk function: the union of pf_barriers over
     every pfunc owning the (physical) function. A superset is enough —
     the hooks re-check Dispatch.barrier precisely; instructions NOT in
     the set provably never act, so the hot loop skips the hook call. *)
  let barriers : (string, (Func.t * (int, unit) Hashtbl.t) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let chunk_funcs = ref [] in
  (match plan with
  | None -> ()
  | Some (p : Plan.t) ->
    Hashtbl.iter
      (fun _ (pf : Plan.pfunc) ->
        List.iter
          (fun (ci : Plan.chunk_info) ->
            let f = ci.Plan.ci_func in
            let bucket =
              match Hashtbl.find_opt barriers f.Func.name with
              | Some l -> l
              | None -> []
            in
            match List.find_opt (fun (g, _) -> g == f) bucket with
            | Some (_, set) ->
              Hashtbl.iter
                (fun id () -> Hashtbl.replace set id ())
                pf.Plan.pf_barriers
            | None ->
              let set = Hashtbl.copy pf.Plan.pf_barriers in
              Hashtbl.replace barriers f.Func.name ((f, set) :: bucket);
              chunk_funcs := f :: !chunk_funcs)
          pf.Plan.pf_chunks)
      p.Plan.pfuncs);
  let pre_for (f : Func.t) : int -> bool =
    match plan with
    | None ->
      (* no plan: no barrier knowledge, keep exact walker semantics by
         always calling the hook (the plain interpreter's is a no-op) *)
      fun _ -> true
    | Some _ -> (
      match Hashtbl.find_opt barriers f.Func.name with
      | Some bucket -> (
        match List.find_opt (fun (g, _) -> g == f) bucket with
        | Some (_, set) -> fun id -> Hashtbl.mem set id
        | None -> fun _ -> true)
      | None -> fun _ -> true)
  in
  let codes = Hashtbl.create 64 in
  let add (f : Func.t) =
    let bucket =
      match Hashtbl.find_opt codes f.Func.name with Some l -> l | None -> []
    in
    if not (List.exists (fun (g, _) -> g == f) bucket) then
      match lower_func ex (pre_for f) f with
      | code -> Hashtbl.replace codes f.Func.name ((f, code) :: bucket)
      | exception Unsupported -> () (* falls back to the walker *)
  in
  Pmodule.iter_funcs ex.Exec.m add;
  List.iter add !chunk_funcs;
  { codes; img_sites }

let find_code t (f : Func.t) : code option =
  match Hashtbl.find_opt t.codes f.Func.name with
  | Some [ (g, c) ] when g == f -> Some c
  | Some bucket -> (
    match List.find_opt (fun (g, _) -> g == f) bucket with
    | Some (_, c) -> Some c
    | None -> None)
  | None -> None

let covers t f = find_code t f <> None

(* ------------------------------------------------------------------ *)
(* the engine: an index-resolved hot loop over one code *)

let[@inline] eval (ex : Exec.t) (regs : Rvalue.t array) (o : operand) :
    Rvalue.t =
  match o with
  | OReg r -> regs.(r)
  | OConst v -> v
  | OStr s -> Rvalue.Ptr (Heap.intern_string ex.Exec.heap s)
  | OFunc f -> Rvalue.Ptr (Exec.func_addr ex f)
  | OGlobal g -> raise (Exec.Trap (Printf.sprintf "unknown global @%s" g))

let[@inline] set_reg (regs : Rvalue.t array) id v =
  if id >= 0 && id < Array.length regs then regs.(id) <- v

let eval_args ex regs (ops : operand array) : Rvalue.t array =
  let n = Array.length ops in
  if n = 0 then [||]
  else begin
    let out = Array.make n Rvalue.Unit in
    for k = 0 to n - 1 do
      out.(k) <- eval ex regs ops.(k)
    done;
    out
  end

let exec_ins (ex : Exec.t) (regs : Rvalue.t array) (l : lins) =
  ex.Exec.steps <- ex.Exec.steps + 1;
  if ex.Exec.steps > ex.Exec.fuel then raise (Exec.Trap "fuel exhausted");
  if l.l_pre then ex.Exec.hooks.Exec.h_pre_instr ex l.l_instr;
  (* fused Machine.instr_cost 1 + Exec.charge: for n = 1 the cost is
     exactly [cycles_per_instr] (1.0 *. c = c), so the clock stays
     bit-identical to the walker's *)
  let mch = ex.Exec.machine in
  let ctr = mch.Sgx.Machine.c in
  ctr.Sgx.Machine.instrs <- ctr.Sgx.Machine.instrs + 1;
  let ck = ex.Exec.clock in
  ck.Vclock.cycles <-
    ck.Vclock.cycles +. mch.Sgx.Machine.cost.Sgx.Cost.cycles_per_instr;
  match l.l_op with
  | LBinop (op, a, b) ->
    set_reg regs l.l_dst (Exec.exec_binop op (eval ex regs a) (eval ex regs b))
  | LIcmp (op, a, b) ->
    set_reg regs l.l_dst (Exec.exec_icmp op (eval ex regs a) (eval ex regs b))
  | LFcmp (op, a, b) ->
    set_reg regs l.l_dst (Exec.exec_fcmp op (eval ex regs a) (eval ex regs b))
  | LCast (op, v, ty) ->
    set_reg regs l.l_dst (Exec.exec_cast op (eval ex regs v) ty)
  | LLoad (p, ty) ->
    let addr = Rvalue.to_addr (eval ex regs p) in
    set_reg regs l.l_dst (Exec.do_load ex addr ty)
  | LStore (v, p, ty) ->
    let addr = Rvalue.to_addr (eval ex regs p) in
    Exec.do_store ex addr ty (eval ex regs v)
  | LGep (base, steps) ->
    (* side-effect order per field step matches Exec.exec_gep exactly:
       the indirection load (and MAC check, which may fault) happens in
       Layout.field_address BEFORE the walker charges the slot access *)
    let addr = ref (Rvalue.to_addr (eval ex regs base)) in
    for k = 0 to Array.length steps - 1 do
      match Array.unsafe_get steps k with
      | LFInline off -> addr := !addr + off
      | LFIndirect off ->
        let slot = !addr + off in
        let ptr = Int64.to_int (Heap.load ex.Exec.heap slot 8) in
        Exec.charge_mem ex slot 8;
        addr := ptr
      | LFIndirectAuth off ->
        let slot = !addr + off in
        let ptr = Int64.to_int (Heap.load ex.Exec.heap slot 8) in
        let tag = Heap.load ex.Exec.heap (slot + 8) 8 in
        if not (Int64.equal tag (Layout.mac ptr)) then
          raise (Heap.Fault (slot, "pointer authentication failure"));
        Exec.charge_mem ex slot 16;
        Exec.charge ex ex.Exec.machine.Sgx.Machine.cost.Sgx.Cost.auth_check;
        addr := ptr
      | LIndex (o, scale) ->
        addr := !addr + (Rvalue.to_int (eval ex regs o) * scale)
    done;
    set_reg regs l.l_dst (Rvalue.Ptr !addr)
  | LSelect (c, a, b) ->
    set_reg regs l.l_dst
      (if Rvalue.truthy (eval ex regs c) then eval ex regs a
       else eval ex regs b)
  | LAlloca ty ->
    let zone = ex.Exec.hooks.Exec.h_alloca_zone ex ty in
    let addr = Layout.alloc_stack ex.Exec.layout ex.Exec.heap zone ty in
    set_reg regs l.l_dst (Rvalue.Ptr addr)
  | LCall (callee, ops) ->
    let argv = eval_args ex regs ops in
    let r = ex.Exec.hooks.Exec.h_call ex l.l_instr callee argv in
    if l.l_dst >= 0 then set_reg regs l.l_dst r
  | LCallind (fv, ops) ->
    let argv = eval_args ex regs ops in
    let f = eval ex regs fv in
    let r = ex.Exec.hooks.Exec.h_callind ex l.l_instr f argv in
    if l.l_dst >= 0 then set_reg regs l.l_dst r
  | LSpawn (callee, ops) ->
    let argv = eval_args ex regs ops in
    ex.Exec.hooks.Exec.h_spawn ex l.l_instr callee argv
  | LBad msg -> raise (Exec.Trap msg)

let phi_trap (code : code) (b : lblock) (pred : string) =
  raise
    (Exec.Trap
       (Printf.sprintf "phi in %%%s of @%s has no entry for predecessor %%%s"
          b.lb_label code.c_func.Func.name pred))

let run_code (ex : Exec.t) (code : code) (args : Rvalue.t array) : Rvalue.t =
  let regs = Array.make (Int.max 1 code.c_nregs) Rvalue.zero in
  let nargs = Int.min (Array.length args) (Array.length regs) in
  Array.blit args 0 regs 0 nargs;
  let scratch =
    if code.c_maxphi = 0 then [||] else Array.make code.c_maxphi Rvalue.zero
  in
  let blocks = code.c_blocks in
  let rec go (bi : int) (pos : int) : Rvalue.t =
    let b = Array.unsafe_get blocks bi in
    let phis = b.lb_phis in
    let np = Array.length phis in
    if np > 0 then begin
      (* parallel phi semantics: read all inputs, then assign *)
      for k = 0 to np - 1 do
        let ph = Array.unsafe_get phis k in
        let v =
          if pos < 0 then phi_trap code b "<entry>"
          else
            match Array.unsafe_get ph.ph_srcs pos with
            | Some o -> eval ex regs o
            | None -> phi_trap code b b.lb_preds.(pos)
        in
        scratch.(k) <- v
      done;
      for k = 0 to np - 1 do
        set_reg regs (Array.unsafe_get phis k).ph_dst scratch.(k)
      done
    end;
    let ins = b.lb_ins in
    for k = 0 to Array.length ins - 1 do
      exec_ins ex regs (Array.unsafe_get ins k)
    done;
    match b.lb_term with
    | LBr e -> go e.e_target e.e_pos
    | LCondbr (c, e1, e2) ->
      if Rvalue.truthy (eval ex regs c) then go e1.e_target e1.e_pos
      else go e2.e_target e2.e_pos
    | LRet_void -> Rvalue.Unit
    | LRet o -> eval ex regs o
    | LUnreachable -> raise (Exec.Trap "unreachable executed")
  in
  go 0 (-1)

(* ------------------------------------------------------------------ *)

let install (ex : Exec.t) (t : t) =
  ex.Exec.run_func <-
    Some
      (fun ex f args ->
        match find_code t f with
        | Some code -> run_code ex code args
        | None -> Exec.exec_func_body ex f args)
