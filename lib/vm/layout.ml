(* Data layout, including the multi-color structure rewriting of §7.2.

   A structure whose fields do not all share one memory color cannot stay
   packed (an enclave is contiguous); Privagic stores the colored fields
   behind pointers. The VM realizes this: in the rewritten layout each
   colored field of a multi-color struct becomes an 8-byte indirection slot,
   the pointed storage being allocated in the field's enclave. Accessing
   such a field costs one extra load (the indirection the paper describes).

   Single-color structs (or fields whose color matches the struct's own
   storage) keep the plain packed layout. *)

open Privagic_pir
open Privagic_secure

type field_slot =
  | Inline of int * int          (* offset, byte size *)
  | Indirect of int * Color.t * int
      (* slot offset (8-byte pointer), field color, pointee byte size *)

type struct_layout = {
  ls_name : string;
  ls_size : int;                 (* rewritten size *)
  ls_fields : field_slot array;
  ls_multicolor : bool;
}

type t = {
  m : Pmodule.t;
  mode : Mode.t;
  auth : bool;    (* authenticated indirection pointers (§8 extension) *)
  structs : (string, struct_layout) Hashtbl.t;
}

(* A PAC-style MAC over the pointer value: a keyed 64-bit mix. This models
   the integrity tag, not cryptographic strength. *)
let mac_key = 0x5AC3D1E7A9B4F06L

let mac (ptr : int) : int64 =
  let z = Int64.logxor (Int64.of_int ptr) mac_key in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  Int64.logxor z (Int64.shift_right_logical z 27)

let zone_of_color (c : Color.t) : Heap.zone =
  match c with
  | Color.Named e -> Heap.Enclave e
  | Color.Unsafe | Color.Shared | Color.Free -> Heap.Unsafe

(* Rewritten byte size of a type (colored fields of multi-color structs
   count 8 bytes for the indirection slot). *)
let rec sizeof t (ty : Ty.t) : int =
  match ty.Ty.desc with
  | Ty.Void -> 0
  | Ty.I1 | Ty.I8 -> 1
  | Ty.I64 | Ty.F64 | Ty.Ptr _ | Ty.Fun _ -> 8
  | Ty.Arr (elt, n) -> n * sizeof t elt
  | Ty.Struct name -> (struct_layout t name).ls_size

and struct_layout t name : struct_layout =
  match Hashtbl.find_opt t.structs name with
  | Some l -> l
  | None ->
    let s = Pmodule.find_struct_exn t.m name in
    let colors =
      List.sort_uniq Color.compare
        (List.map
           (fun (_, ty) ->
             Option.value ~default:(Mode.default_memory_color t.mode)
               (Cenv.root_color ty))
           s.Pmodule.fields)
    in
    let multicolor = List.length colors > 1 in
    let fields =
      Array.make (List.length s.Pmodule.fields) (Inline (0, 0))
    in
    let off = ref 0 in
    List.iteri
      (fun k (_, fty) ->
        match Cenv.root_color fty with
        | Some c when multicolor && Color.is_enclave c ->
          fields.(k) <- Indirect (!off, c, sizeof t fty);
          (* with authenticated pointers the slot also holds the MAC *)
          off := !off + (if t.auth then 16 else 8)
        | _ ->
          let size = sizeof t fty in
          fields.(k) <- Inline (!off, size);
          off := !off + size)
      s.Pmodule.fields;
    let l =
      { ls_name = name; ls_size = !off; ls_fields = fields;
        ls_multicolor = multicolor }
    in
    Hashtbl.replace t.structs name l;
    l

let create ?(auth_pointers = false) (m : Pmodule.t) (mode : Mode.t) : t =
  let t = { m; mode; auth = auth_pointers; structs = Hashtbl.create 16 } in
  List.iter
    (fun (s : Pmodule.struct_def) -> ignore (struct_layout t s.sname))
    (Pmodule.structs_sorted m);
  t

(* Allocate one value of type [ty] in [zone], initializing the indirection
   slots of multi-color structs (their colored fields are allocated in their
   own enclaves). Returns the address. *)
let rec alloc t (heap : Heap.t) (zone : Heap.zone) (ty : Ty.t) : int =
  let addr = Heap.alloc heap zone (Int.max 1 (sizeof t ty)) in
  init_struct_slots t heap ty addr;
  addr

(* Same, on the zone's stack region (alloca). *)
and alloc_stack t (heap : Heap.t) (zone : Heap.zone) (ty : Ty.t) : int =
  let addr = Heap.alloc_stack heap zone (Int.max 1 (sizeof t ty)) in
  init_struct_slots t heap ty addr;
  addr

and init_struct_slots t heap (ty : Ty.t) addr =
  match ty.Ty.desc with
  | Ty.Struct name ->
    let l = struct_layout t name in
    Array.iter
      (fun slot ->
        match slot with
        | Indirect (off, color, pointee_size) ->
          let field_addr =
            Heap.alloc heap (zone_of_color color) (max 1 pointee_size)
          in
          Heap.store heap (addr + off) 8 (Int64.of_int field_addr);
          if t.auth then Heap.store heap (addr + off + 8) 8 (mac field_addr)
        | Inline _ -> ())
      l.ls_fields;
    (* nested inline structs also need their slots initialized *)
    let s = Pmodule.find_struct_exn t.m name in
    List.iteri
      (fun k (_, fty) ->
        match l.ls_fields.(k) with
        | Inline (off, _) -> init_struct_slots t heap fty (addr + off)
        | Indirect _ -> ())
      s.Pmodule.fields
  | Ty.Arr (elt, n) ->
    let stride = sizeof t elt in
    for k = 0 to n - 1 do
      init_struct_slots t heap elt (addr + (k * stride))
    done
  | _ -> ()

(* Field access: given the struct base address, return the field address and
   whether an indirection load was taken (the caller charges its cost).
   With authenticated pointers, the MAC next to the slot is verified —
   a tampered indirection faults instead of redirecting the enclave. *)
let field_address t heap sname k base :
    int * (* address *) bool (* indirection taken *) =
  let l = struct_layout t sname in
  match l.ls_fields.(k) with
  | Inline (off, _) -> (base + off, false)
  | Indirect (off, _, _) ->
    let ptr = Int64.to_int (Heap.load heap (base + off) 8) in
    if t.auth then begin
      let tag = Heap.load heap (base + off + 8) 8 in
      if not (Int64.equal tag (mac ptr)) then
        raise (Heap.Fault (base + off, "pointer authentication failure"))
    end;
    (ptr, true)

(* Address of the indirection slot itself (what the cache model sees being
   loaded during the indirection). *)
let field_slot_address t sname k base =
  let l = struct_layout t sname in
  match l.ls_fields.(k) with
  | Inline (off, _) -> base + off
  | Indirect (off, _, _) -> base + off
