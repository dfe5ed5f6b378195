(* The secure type system of Privagic (paper §5-§6, Table 3).

   The analysis assigns to every SSA register a *value color* (which
   enclave's secret the value carries) and to every instruction an
   *executing color* (which partition must run it). Pointer registers
   additionally carry a *memory color*: the color of the location they
   designate — the paper's rule "if p points to a C memory location, p is
   itself C" makes the value color of well-typed pointers equal to their
   memory color, and the memory color is what loads/stores check against.

   Functions are specialized per call-site argument colors (§6.2); the
   stabilizing algorithm (§5.2) repeats full passes until no color changes.
   Colors only evolve monotonically from F to a concrete color, so the
   fixed point exists; incompatibilities are collected as diagnostics in a
   final reporting pass. *)

open Privagic_pir

type instance_key = { ik_func : string; ik_args : Color.t list }

let instance_name k =
  if List.for_all (Color.equal Color.Free) k.ik_args then k.ik_func
  else
    Printf.sprintf "%s@%s" k.ik_func
      (String.concat "," (List.map Color.to_string k.ik_args))

type instance = {
  key : instance_key;
  iname : string;
  func : Func.t;
  reg_tys : (int, Ty.t) Hashtbl.t;
  reg_color : (int, Color.t) Hashtbl.t;    (* value colors *)
  ptr_mem : (int, Color.t) Hashtbl.t;      (* memory colors of pointers *)
  instr_color : (int, Color.t) Hashtbl.t;  (* executing colors *)
  block_color : (string, Color.t) Hashtbl.t;
  mutable ret_color : Color.t;
  mutable ret_mem : Color.t option;        (* memory color of returned ptr *)
  cfg : Cfg.t;
  pdom : Dom.t;
}

type t = {
  mode : Mode.t;
  auth : bool;  (* §8 extension: authenticated indirection pointers *)
  m : Pmodule.t;
  instances : (instance_key, instance) Hashtbl.t;
  mutable order : instance_key list;       (* creation order, for reports *)
  call_sites : (instance_key * int, instance_key) Hashtbl.t;
      (* (caller instance, call/spawn instr id) -> callee instance *)
  mutable diagnostics : Diagnostic.t list;
  mutable changed : bool;
  mutable collect : bool;
}

(* ------------------------------------------------------------------ *)
(* small state helpers: all color updates are monotone F -> C          *)

let diag t inst kind loc fmt =
  Format.kasprintf
    (fun msg ->
      if t.collect then
        t.diagnostics <-
          Diagnostic.make ~kind ~func:inst.iname ~loc msg :: t.diagnostics)
    fmt

let reg_color inst r =
  Option.value ~default:Color.Free (Hashtbl.find_opt inst.reg_color r)

let set_reg_color t inst r c =
  if not (Color.equal c Color.Free) then begin
    let cur = reg_color inst r in
    if Color.equal cur Color.Free then begin
      Hashtbl.replace inst.reg_color r c;
      t.changed <- true
    end
  end

let instr_color inst (i : Instr.t) =
  Option.value ~default:Color.Free (Hashtbl.find_opt inst.instr_color i.id)

let set_instr_color t inst (i : Instr.t) c =
  if not (Color.equal c Color.Free) then begin
    let cur = instr_color inst i in
    if Color.equal cur Color.Free then begin
      Hashtbl.replace inst.instr_color i.id c;
      t.changed <- true
    end
    else if not (Color.compatible cur c) then
      diag t inst Diagnostic.Confidentiality i.loc
        "instruction requires both %s and %s" (Color.to_string cur)
        (Color.to_string c)
  end

let block_color inst label =
  Option.value ~default:Color.Free (Hashtbl.find_opt inst.block_color label)

let mem_color t inst (p : Value.t) : Color.t =
  match p with
  | Value.Reg r -> (
    match Hashtbl.find_opt inst.ptr_mem r with
    | Some c -> c
    | None -> (
      match Hashtbl.find_opt inst.reg_tys r with
      | Some ty -> Cenv.pointee_color_of_ty t.mode ty
      | None -> Mode.default_memory_color t.mode))
  | _ -> Cenv.pointee_color t.mode t.m inst.reg_tys p

(* Memory colors evolve monotonically towards enclave colors: a pointer
   first seen flowing from an unknown/default source may later be
   discovered to designate enclave memory (phi over a loop backedge). An
   established enclave color never downgrades; conflicts surface through
   the pointer-assignment rule. *)
let set_mem_color t inst r c =
  match Hashtbl.find_opt inst.ptr_mem r with
  | Some cur when Color.equal cur c -> ()
  | Some cur when Color.is_enclave cur -> ()
  | Some _ when not (Color.is_enclave c) -> ()
  | Some _ | None ->
    Hashtbl.replace inst.ptr_mem r c;
    t.changed <- true

(* value color of an operand *)
let vcolor t inst (v : Value.t) : Color.t =
  match v with
  | Value.Reg r -> reg_color inst r
  | _ -> Cenv.const_color t.mode t.m v

let is_ptr_reg inst r =
  match Hashtbl.find_opt inst.reg_tys r with
  | Some ty -> Ty.is_pointer ty
  | None -> false

(* Memory designated by a pointer-valued operand; F when the operand does
   not designate statically-known memory (null, constants, strings —
   compatible with any pointee color). *)
let val_mem t inst (v : Value.t) : Color.t =
  match v with
  | Value.Reg r ->
    if is_ptr_reg inst r then mem_color t inst v else Color.Free
  | Value.Global g -> (
    match Pmodule.find_global t.m g with
    | Some gl -> Cenv.global_color t.mode gl
    | None -> Color.Free)
  | Value.Str _ | Value.Null _ | Value.Undef _ | Value.Func _ | Value.Int _
  | Value.Float _ ->
    Color.Free

(* Rule 4 of §4 as a pointer-assignment check: a pointer designating
   [vm]-colored memory may only be stored into (or passed as, or returned
   through) a slot whose declared pointee color is the same. This is the
   check that rejects [x = &b] in Fig. 3b. *)
let check_ptr_assign t inst loc ~(target_elem : Ty.t) what v =
  match target_elem.Ty.desc with
  | Ty.Ptr _ ->
    let d = Cenv.pointee_color_of_ty t.mode target_elem in
    let vm = val_mem t inst v in
    if (not (Color.equal vm Color.Free)) && not (Color.equal vm d) then
      diag t inst Diagnostic.Pointer_cast loc
        "%s: a pointer to %s memory cannot become a pointer to %s memory"
        what (Color.to_string vm) (Color.to_string d)
  | _ -> ()

(* Static element type behind a pointer operand (what a store through it
   writes into). *)
let elem_ty_of_ptr t inst (p : Value.t) : Ty.t option =
  match p with
  | Value.Reg r -> (
    match Hashtbl.find_opt inst.reg_tys r with
    | Some { Ty.desc = Ty.Ptr e; _ } -> Some e
    | _ -> None)
  | Value.Global g -> (
    match Pmodule.find_global t.m g with
    | Some gl -> Some gl.Pmodule.gty
    | None -> None)
  | Value.Str _ -> Some Ty.i8
  | _ -> None

(* x <- y with a compatibility check (the paper's arrow). [kind] classifies
   the violation when the two colors are incompatible. *)
let flow t inst loc kind ~into:(r : int) (c : Color.t) what =
  let cur = reg_color inst r in
  if Color.compatible cur c then set_reg_color t inst r c
  else
    diag t inst kind loc "%s: %s flows into a %s register" what
      (Color.to_string c) (Color.to_string cur)

(* kind of a compatibility failure between a value color and a memory
   color, matching §4's three guarantees. *)
let store_kind mode ~value ~memory =
  match value, memory with
  | Color.Named _, (Color.Unsafe | Color.Shared) -> Diagnostic.Confidentiality
  | Color.Named _, Color.Named _ -> Diagnostic.Confidentiality
  | (Color.Unsafe | Color.Shared), Color.Named _ ->
    if Mode.equal mode Mode.Hardened then Diagnostic.Iago
    else Diagnostic.Integrity
  | _ -> Diagnostic.Confidentiality

(* ------------------------------------------------------------------ *)
(* instance management                                                 *)

let mk_instance t key =
  let func = Pmodule.find_func_exn t.m key.ik_func in
  let cfg = Cfg.of_func func in
  let inst =
    {
      key;
      iname = instance_name key;
      func;
      reg_tys = Cenv.reg_types func;
      reg_color = Hashtbl.create 64;
      ptr_mem = Hashtbl.create 16;
      instr_color = Hashtbl.create 64;
      block_color = Hashtbl.create 16;
      ret_color = Color.Free;
      ret_mem = None;
      cfg;
      pdom = Dom.postdominators cfg;
    }
  in
  (* Parameters take the specialization's argument colors; a parameter with
     a declared secure type keeps its declared color. *)
  List.iteri
    (fun i (_, pty) ->
      let c = List.nth key.ik_args i in
      if not (Color.equal c Color.Free) then Hashtbl.replace inst.reg_color i c;
      match Cenv.root_color pty with
      | Some pc when Ty.is_pointer pty |> not ->
        if not (Color.equal pc Color.Free) then
          Hashtbl.replace inst.reg_color i pc
      | _ -> ())
    func.Func.params;
  inst

let instance t key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> inst
  | None ->
    let inst = mk_instance t key in
    Hashtbl.replace t.instances key inst;
    t.order <- key :: t.order;
    t.changed <- true;
    inst

(* ------------------------------------------------------------------ *)
(* call handling (§6.2-§6.4)                                           *)

(* Effective argument colors for a call to a defined function: declared
   parameter colors win; actual colors must be compatible with them.
   Pointer parameters additionally enforce the pointee-color agreement of
   rule 4. *)
let effective_arg_colors t inst loc callee args =
  let f = Pmodule.find_func_exn t.m callee in
  List.map2
    (fun (_, pty) arg ->
      check_ptr_assign t inst loc ~target_elem:pty
        (Printf.sprintf "argument of @%s" callee)
        arg;
      let actual = vcolor t inst arg in
      match Cenv.root_color pty with
      | Some declared when not (Ty.is_pointer pty) ->
        if not (Color.compatible actual declared) then
          diag t inst
            (store_kind t.mode ~value:actual ~memory:declared)
            loc "argument of @%s: %s value passed to a %s parameter" callee
            (Color.to_string actual) (Color.to_string declared);
        declared
      | _ -> actual)
    f.Func.params args

(* The executing color of a within/ignore call: the unique non-F color among
   the argument values and the memory designated by pointer arguments —
   [memcpy(p, ...)] with [p] pointing into blue memory executes in blue
   (named colors take precedence over U/S). *)
let within_color t inst loc callee args =
  let arg_color arg =
    let vc = vcolor t inst arg in
    if Color.is_enclave vc then vc
    else
      let mc = val_mem t inst arg in
      if Color.is_enclave mc then mc else vc
  in
  let colors =
    List.filter (fun c -> not (Color.equal c Color.Free))
      (List.map arg_color args)
  in
  let named = List.filter Color.is_enclave colors in
  match List.sort_uniq Color.compare named with
  | [] -> (
    match List.sort_uniq Color.compare colors with c :: _ -> Some c | [] -> None)
  | [ c ] -> Some c
  | c :: rest ->
    diag t inst Diagnostic.Confidentiality loc
      "call to @%s mixes enclave colors %s and %s" callee (Color.to_string c)
      (String.concat "," (List.map Color.to_string rest));
    Some c

let visit_call t inst (i : Instr.t) callee args =
  let loc = i.Instr.loc in
  match Pmodule.find_func t.m callee with
  | Some _ ->
    (* local function: specialize on the effective argument colors (§6.2) *)
    let eff = effective_arg_colors t inst loc callee args in
    let callee_key = { ik_func = callee; ik_args = eff } in
    Hashtbl.replace t.call_sites (inst.key, i.Instr.id) callee_key;
    let callee_inst = instance t callee_key in
    (match Instr.defines i with
    | Some id ->
      flow t inst loc Diagnostic.Confidentiality ~into:id callee_inst.ret_color
        (Printf.sprintf "result of @%s" callee);
      if is_ptr_reg inst id then
        Option.iter (set_mem_color t inst id) callee_inst.ret_mem
    | None -> ())
    (* the call itself is control: replicated across common chunks *)
  | None ->
    let ext = Pmodule.find_extern t.m callee in
    let annots =
      match ext with Some e -> e.Pmodule.eannots | None -> []
    in
    let has a = List.exists (Annot.equal a) annots in
    if has Annot.Within || has Annot.Ignore then begin
      (* §6.3-§6.4: executes inside the enclave of its colored arguments *)
      let c = within_color t inst loc callee args in
      (match c with
      | Some c ->
        if has Annot.Within then
          List.iter
            (fun arg ->
              let ac = vcolor t inst arg in
              if not (Color.compatible ac c) then
                diag t inst
                  (store_kind t.mode ~value:ac ~memory:c)
                  loc "argument of within @%s: %s incompatible with call color %s"
                  callee (Color.to_string ac) (Color.to_string c);
              (* pointer arguments: the pointed value must be compatible,
                 so nothing escapes through the pointer during the call.
                 S memory is readable from any partition (its loads become
                 F), so S pointees are acceptable in relaxed mode. *)
              match val_mem t inst arg with
              | Color.Free | Color.Shared -> ()
              | mc ->
                if not (Color.compatible mc c) then
                  diag t inst
                    (store_kind t.mode ~value:mc ~memory:c)
                    loc
                    "pointer argument of within @%s reaches %s memory from a %s call"
                    callee (Color.to_string mc) (Color.to_string c))
            args;
        set_instr_color t inst i c;
        (match Instr.defines i with
        | Some id ->
          flow t inst loc Diagnostic.Confidentiality ~into:id c
            (Printf.sprintf "result of @%s" callee);
          if is_ptr_reg inst id then set_mem_color t inst id c
        | None -> ())
      | None ->
        (* all arguments F: usable from any partition, like an F instr *)
        ())
    end
    else begin
      (* plain external call: belongs to the untrusted partition (§6.3) *)
      List.iter
        (fun arg ->
          let ac = vcolor t inst arg in
          if not (Color.compatible ac Color.Unsafe) then
            diag t inst Diagnostic.Confidentiality loc
              "argument of external @%s leaks a %s value to the untrusted world"
              callee (Color.to_string ac))
        args;
      set_instr_color t inst i Color.Unsafe;
      match Instr.defines i with
      | Some id ->
        let rc = Mode.entry_color t.mode in
        flow t inst loc Diagnostic.Iago ~into:id rc
          (Printf.sprintf "result of external @%s" callee)
      | None -> ()
    end

(* ------------------------------------------------------------------ *)
(* per-instruction rules (Table 3)                                     *)

let visit_instr t inst (blk : Block.t) (i : Instr.t) =
  let loc = i.Instr.loc in
  let result_flow kind c what =
    match Instr.defines i with
    | Some id -> flow t inst loc kind ~into:id c what
    | None -> ()
  in
  (match i.op with
  | Instr.Alloca ty ->
    let c =
      Option.value
        ~default:(Mode.default_memory_color t.mode)
        (Cenv.root_color ty)
    in
    (match Instr.defines i with
    | Some id -> set_mem_color t inst id c
    | None -> ());
    (* addresses are F values; the slot itself lives in c-colored memory *)
    set_instr_color t inst i
      (if Color.equal c Color.Shared then Color.Free else c)
  | Instr.Load p ->
    (* Rule 1: *p ~ p ; r <- *p (S loads become F) *)
    let mc = mem_color t inst p in
    let pc = vcolor t inst p in
    if not (Color.compatible pc mc) then
      diag t inst
        (store_kind t.mode ~value:pc ~memory:mc)
        loc "load through a %s pointer from %s memory" (Color.to_string pc)
        (Color.to_string mc);
    (* With authenticated pointers (§8 extension), a pointer to a
       multi-color structure loaded from unsafe memory is usable anywhere:
       any tampering is caught by the MAC at the field access. Such loads
       are replicated (F) instead of pinned to the unsafe partition. *)
    let auth_base_load =
      t.auth
      &&
      match i.ty.Ty.desc with
      | Ty.Ptr { Ty.desc = Ty.Struct sname; _ } ->
        Cenv.is_multicolor_struct t.mode t.m sname
      | _ -> false
    in
    let rc =
      if Color.equal mc Color.Shared || auth_base_load then Color.Free
      else mc
    in
    result_flow Diagnostic.Confidentiality rc "loaded value";
    (* a loaded pointer designates the memory its static type declares *)
    (match Instr.defines i with
    | Some id when is_ptr_reg inst id ->
      set_mem_color t inst id (Cenv.pointee_color_of_ty t.mode i.ty)
    | _ -> ());
    (* a load from S is replicated: every partition may read unsafe memory
       directly (SGX lets enclave code read outside memory); so is an
       authenticated multi-color base load *)
    set_instr_color t inst i
      (if Color.equal mc Color.Shared || auth_base_load then Color.Free
       else mc)
  | Instr.Store (v, p) ->
    (* Rule 3: *p ~ p ; r ~ *p ; the store executes in *p (integrity) *)
    let mc = mem_color t inst p in
    let pc = vcolor t inst p in
    let vc = vcolor t inst v in
    if not (Color.compatible pc mc) then
      diag t inst
        (store_kind t.mode ~value:pc ~memory:mc)
        loc "store through a %s pointer into %s memory" (Color.to_string pc)
        (Color.to_string mc);
    if not (Color.compatible vc mc) then
      diag t inst
        (store_kind t.mode ~value:vc ~memory:mc)
        loc "storing a %s value into %s memory" (Color.to_string vc)
        (Color.to_string mc);
    (* rule 4: storing a pointer may not change its pointee color *)
    (match elem_ty_of_ptr t inst p with
    | Some elem -> check_ptr_assign t inst loc ~target_elem:elem "store" v
    | None -> ());
    set_instr_color t inst i mc
  | Instr.Binop (_, a, b) | Instr.Icmp (_, a, b) | Instr.Fcmp (_, a, b) ->
    (* Rule 2: r <- each input *)
    let ca = vcolor t inst a and cb = vcolor t inst b in
    result_flow Diagnostic.Confidentiality ca "operand";
    result_flow
      (if Mode.equal t.mode Mode.Hardened then Diagnostic.Iago
       else Diagnostic.Confidentiality)
      cb "operand";
    (match Instr.defines i with
    | Some id -> set_instr_color t inst i (reg_color inst id)
    | None -> ())
  | Instr.Select (c, a, b) ->
    List.iter
      (fun v -> result_flow Diagnostic.Confidentiality (vcolor t inst v) "operand")
      [ c; a; b ];
    (match Instr.defines i with
    | Some id ->
      if is_ptr_reg inst id then begin
        (* null/constants are mem-neutral (F); enclave colors win *)
        let mems =
          List.filter
            (fun m -> not (Color.equal m Color.Free))
            [ val_mem t inst a; val_mem t inst b ]
        in
        match List.filter Color.is_enclave mems with
        | mc :: _ -> set_mem_color t inst id mc
        | [] -> (
          match mems with mc :: _ -> set_mem_color t inst id mc | [] -> ())
      end;
      set_instr_color t inst i (reg_color inst id)
    | None -> ())
  | Instr.Phi entries ->
    List.iter
      (fun (_, v) ->
        result_flow Diagnostic.Confidentiality (vcolor t inst v) "phi operand")
      entries;
    (* rule 4, SSA form: choosing between the incoming values reveals which
       path executed, so the phi inherits the region color of its incoming
       edges (the mem2reg image of Fig. 4's store-in-branch) *)
    List.iter
      (fun (pred, _) ->
        result_flow Diagnostic.Implicit_leak (block_color inst pred)
          "phi over a secret-dependent edge")
      entries;
    (match Instr.defines i with
    | Some id ->
      if is_ptr_reg inst id then begin
        let mems =
          List.filter
            (fun m -> not (Color.equal m Color.Free))
            (List.map (fun (_, v) -> val_mem t inst v) entries)
        in
        match List.filter Color.is_enclave mems with
        | mc :: _ -> set_mem_color t inst id mc
        | [] -> (
          match mems with mc :: _ -> set_mem_color t inst id mc | [] -> ())
      end;
      set_instr_color t inst i (reg_color inst id)
    | None -> ())
  | Instr.Cast (op, v, ty) ->
    let vc = vcolor t inst v in
    result_flow Diagnostic.Confidentiality vc "cast operand";
    (match op, Instr.defines i with
    | (Instr.Bitcast | Instr.Inttoptr), Some id when Ty.is_pointer ty ->
      (* Rule 4 of §4: a cast cannot change a pointee color. *)
      let src_mem =
        match v with
        | Value.Reg _ | Value.Global _ | Value.Str _ -> mem_color t inst v
        | _ -> Mode.default_memory_color t.mode
      in
      let declared = Cenv.root_color (Ty.deref ty) in
      (match declared with
      | Some dst when Color.is_enclave dst ->
        if Color.is_enclave src_mem && not (Color.equal src_mem dst) then
          diag t inst Diagnostic.Pointer_cast loc
            "cast changes pointee color from %s to %s"
            (Color.to_string src_mem) (Color.to_string dst);
        set_mem_color t inst id dst
      | _ -> set_mem_color t inst id src_mem)
    | _ -> ());
    (match Instr.defines i with
    | Some id -> set_instr_color t inst i (reg_color inst id)
    | None -> ())
  | Instr.Gep (pointee, base, steps) ->
    (* Address computation. The result designates memory whose color is the
       accessed field/element's declared color, or the base's memory color
       when the field is unannotated (a field of a blue struct is blue). *)
    let base_mem =
      match base with
      | Value.Reg _ | Value.Global _ | Value.Str _ -> mem_color t inst base
      | _ -> Mode.default_memory_color t.mode
    in
    let declared = Cenv.root_color (Ty.deref i.ty) in
    let result_mem =
      match declared with
      | Some c when Color.is_enclave c -> c
      | _ -> base_mem
    in
    (* a colored field inside differently-colored storage is a multi-color
       structure: only representable in relaxed mode (§7.2, §8), unless
       the authenticated-pointer extension guarantees the integrity of the
       indirection loaded from unsafe memory *)
    let multicolor_access =
      match declared with
      | Some c ->
        Color.is_enclave c
        && (not (Color.equal base_mem c))
        && not (Color.equal base_mem Color.Free)
      | None -> false
    in
    (if multicolor_access && Mode.equal t.mode Mode.Hardened && not t.auth then
       match declared with
       | Some c ->
         diag t inst Diagnostic.Multicolor_struct loc
           "multi-color structure: %s field inside %s storage requires \
            relaxed mode (or the authenticated-pointer extension)"
           (Color.to_string c) (Color.to_string base_mem)
       | None -> ());
    ignore pointee;
    (match Instr.defines i with
    | Some id ->
      set_mem_color t inst id result_mem;
      (* indices computed from colored data taint the address (a secret-
         dependent access into another color is an indirect leak) *)
      List.iter
        (fun step ->
          match step with
          | Instr.Index v ->
            flow t inst loc Diagnostic.Confidentiality ~into:id
              (vcolor t inst v) "gep index"
          | Instr.Field _ -> ())
        steps;
      (* base pointer taint flows to the computed address — except through
         an authenticated multi-color indirection, whose MAC check launders
         the untrusted provenance of the base (§8 extension) *)
      if not (t.auth && multicolor_access) then
        flow t inst loc Diagnostic.Confidentiality ~into:id
          (vcolor t inst base) "gep base";
      set_instr_color t inst i (reg_color inst id)
    | None -> ())
  | Instr.Call (callee, args) -> visit_call t inst i callee args
  | Instr.Callind (fv, args) ->
    (* §6.3: an indirect call is a call to an external function in the
       untrusted part; arguments must be compatible with U *)
    List.iter
      (fun arg ->
        let ac = vcolor t inst arg in
        if not (Color.compatible ac Color.Unsafe) then
          diag t inst Diagnostic.Confidentiality i.loc
            "argument of indirect call leaks a %s value" (Color.to_string ac))
      (fv :: args);
    set_instr_color t inst i Color.Unsafe;
    (match Instr.defines i with
    | Some id ->
      flow t inst i.loc Diagnostic.Iago ~into:id (Mode.entry_color t.mode)
        "result of indirect call"
    | None -> ())
  | Instr.Spawn (callee, args) ->
    (* thread creation crosses the OS: arguments transit unsafe memory *)
    List.iter
      (fun arg ->
        let ac = vcolor t inst arg in
        if not (Color.compatible ac Color.Unsafe) then
          diag t inst Diagnostic.Confidentiality i.loc
            "spawn argument leaks a %s value through unsafe memory"
            (Color.to_string ac))
      args;
    if Pmodule.is_defined t.m callee then begin
      let eff = effective_arg_colors t inst i.loc callee args in
      let callee_key = { ik_func = callee; ik_args = eff } in
      Hashtbl.replace t.call_sites (inst.key, i.id) callee_key;
      ignore (instance t callee_key)
    end;
    set_instr_color t inst i Color.Unsafe);
  (* Rule 4: inside a block colored C, every output register and every
     instruction takes a color compatible with C (Fig. 4). *)
  let bc = block_color inst blk.Block.label in
  if not (Color.equal bc Color.Free) then begin
    result_flow Diagnostic.Implicit_leak bc "secret-dependent block";
    let ic = instr_color inst i in
    if not (Color.compatible ic bc) then
      diag t inst Diagnostic.Implicit_leak loc
        "%s instruction inside a %s-controlled region" (Color.to_string ic)
        (Color.to_string bc)
    else set_instr_color t inst i bc
  end

(* Rule 4 block coloring: blocks control-dependent on a conditional branch
   whose condition is colored take the condition's color. *)
let color_blocks t inst =
  List.iter
    (fun (b : Block.t) ->
      match b.term with
      | Instr.Condbr (c, _, _) ->
        let cc =
          match vcolor t inst c with
          | Color.Shared -> Color.Free
          | cc -> cc
        in
        let cc =
          (* a branch inside a colored region propagates the region color *)
          let bc = block_color inst b.label in
          if Color.equal cc Color.Free then bc else cc
        in
        if not (Color.equal cc Color.Free) then
          List.iter
            (fun label ->
              let cur = block_color inst label in
              if Color.equal cur Color.Free then begin
                Hashtbl.replace inst.block_color label cc;
                t.changed <- true
              end
              else if not (Color.compatible cur cc) then
                diag t inst Diagnostic.Implicit_leak Loc.none
                  "block %%%s is controlled by both %s and %s secrets" label
                  (Color.to_string cur) (Color.to_string cc))
            (Dom.influence_region inst.cfg inst.pdom b.label)
      | _ -> ())
    inst.func.Func.blocks

let visit_term t inst (b : Block.t) =
  match b.Block.term with
  | Instr.Ret v ->
    let vc =
      match v with Some v -> vcolor t inst v | None -> Color.Free
    in
    (* returning from a secret-dependent region reveals the path: the
       return value inherits the block color *)
    let vc =
      let bc = block_color inst b.label in
      if Color.equal vc Color.Free then bc else vc
    in
    if not (Color.equal vc Color.Free) then begin
      if Color.equal inst.ret_color Color.Free then begin
        inst.ret_color <- vc;
        t.changed <- true
      end
      else if not (Color.compatible inst.ret_color vc) then
        diag t inst Diagnostic.Confidentiality Loc.none
          "function returns both %s and %s values"
          (Color.to_string inst.ret_color) (Color.to_string vc)
    end;
    (match v with
    | Some v when Ty.is_pointer inst.func.Func.ret ->
      check_ptr_assign t inst Loc.none ~target_elem:inst.func.Func.ret
        "return" v;
      let mc = val_mem t inst v in
      (match inst.ret_mem with
      | Some cur when Color.is_enclave cur || Color.equal cur mc -> ()
      | Some _ when not (Color.is_enclave mc) -> ()
      | _ ->
        if not (Color.equal mc Color.Free) then begin
          inst.ret_mem <- Some mc;
          t.changed <- true
        end)
    | _ -> ())
  | Instr.Br _ | Instr.Condbr _ | Instr.Unreachable -> ()

let analyze_instance t inst =
  color_blocks t inst;
  List.iter
    (fun label ->
      let b = Func.find_block_exn inst.func label in
      List.iter (fun i -> visit_instr t inst b i) b.Block.instrs;
      visit_term t inst b)
    (Cfg.reverse_postorder inst.cfg)

(* ------------------------------------------------------------------ *)
(* whole-module analysis                                               *)

(* Functions whose address is taken anywhere get an entry-like instance:
   an indirect call may reach them from the untrusted part (§6.3). *)
let address_taken_funcs (m : Pmodule.t) : string list =
  let taken = Hashtbl.create 8 in
  Pmodule.iter_funcs m (fun f ->
      Func.iter_instrs f (fun _ i ->
          let ops =
            match i.Instr.op with
            | Instr.Call (_, args) -> args
            | _ -> Instr.operands i
          in
          List.iter
            (function
              | Value.Func name -> Hashtbl.replace taken name ()
              | _ -> ())
            ops));
  Hashtbl.fold (fun name () acc -> name :: acc) taken []
  |> List.sort String.compare

let root_instances t =
  let root name =
    match Pmodule.find_func t.m name with
    | None -> ()
    | Some f ->
      let args =
        List.map
          (fun (_, pty) ->
            match Cenv.root_color pty with
            | Some c when not (Ty.is_pointer pty) -> c
            | _ -> Mode.entry_color t.mode)
          f.Func.params
      in
      ignore (instance t { ik_func = name; ik_args = args })
  in
  List.iter root (List.sort String.compare (Pmodule.entry_points t.m));
  List.iter root (address_taken_funcs t.m)

let max_passes = 64

let run ?(mode = Mode.Hardened) ?(auth_pointers = false) (m : Pmodule.t) : t =
  let t =
    {
      mode;
      auth = auth_pointers;
      m;
      instances = Hashtbl.create 16;
      order = [];
      call_sites = Hashtbl.create 64;
      diagnostics = [];
      changed = false;
      collect = false;
    }
  in
  root_instances t;
  let pass () =
    (* instances created during the pass are analyzed within the same pass *)
    let seen = Hashtbl.create 16 in
    let rec drain () =
      let todo =
        List.filter (fun k -> not (Hashtbl.mem seen k)) (List.rev t.order)
      in
      if todo <> [] then begin
        List.iter
          (fun k ->
            Hashtbl.replace seen k ();
            analyze_instance t (Hashtbl.find t.instances k))
          todo;
        drain ()
      end
    in
    drain ()
  in
  let passes = ref 0 in
  t.changed <- true;
  while t.changed && !passes < max_passes do
    t.changed <- false;
    incr passes;
    pass ()
  done;
  (* final reporting pass *)
  t.collect <- true;
  pass ();
  t.diagnostics <- List.rev t.diagnostics;
  t

let ok t = t.diagnostics = []

let instances t =
  List.rev_map (fun k -> Hashtbl.find t.instances k) t.order

let find_instance t name args =
  Hashtbl.find_opt t.instances { ik_func = name; ik_args = args }

(* Callee instance resolved at a given call/spawn site. *)
let call_site t key instr_id = Hashtbl.find_opt t.call_sites (key, instr_id)

(* Executing color of an instruction in an instance. *)
let instruction_color inst (i : Instr.t) = instr_color inst i

(* Colorset of an instance (§7.3.1): executing colors of its instructions,
   F and S excluded (S stores are placed into an existing chunk). *)
let colorset (inst : instance) : Color.Set.t =
  let add c set =
    match c with
    | Color.Free | Color.Shared -> set
    | c -> Color.Set.add c set
  in
  let set =
    Hashtbl.fold (fun _ c set -> add c set) inst.instr_color Color.Set.empty
  in
  (* parameter colors count: the chunk must receive its colored arguments *)
  List.fold_left (fun set c -> add c set) set inst.key.ik_args

let pp_report fmt t =
  Format.fprintf fmt "mode: %a@." Mode.pp t.mode;
  List.iter
    (fun inst ->
      Format.fprintf fmt "instance %s: colorset {%s} ret %a@." inst.iname
        (String.concat ", "
           (List.map Color.to_string (Color.Set.elements (colorset inst))))
        Color.pp inst.ret_color)
    (instances t);
  List.iter (fun d -> Format.fprintf fmt "%a@." Diagnostic.pp d) t.diagnostics
