(* Zoned, sparse, byte-addressed simulated memory.

   Each zone (unsafe memory, one per enclave, read-only data) owns a 2 GiB
   slice of a single flat address space; allocation is a bump pointer per
   zone. Storage is sparse — 4 KiB pages materialized on first touch — so
   simulating multi-hundred-MiB datasets only costs memory for the pages a
   workload actually writes. Address 0 is never mapped (null). *)

type zone = Unsafe | Enclave of string | Rodata

let zone_equal a b =
  match a, b with
  | Unsafe, Unsafe | Rodata, Rodata -> true
  | Enclave x, Enclave y -> String.equal x y
  | _ -> false

let zone_to_string = function
  | Unsafe -> "U"
  | Rodata -> "rodata"
  | Enclave e -> e

let region_bits = 31 (* 2 GiB per zone *)
let page_bits = 12

type region = {
  zone : zone;
  base : int;
  mutable brk : int; (* next free offset *)
  mutable pages : Bytes.t option array; (* indexed by offset lsr page_bits *)
  mutable live_bytes : int;
}

type t = {
  mutable regions : region list;
  mutable by_index : region option array;
      (* region n (1-based) owns addresses [n lsl region_bits, ...): the
         owning region of an address is by_index.(addr lsr region_bits) *)
  by_zone : (string, region) Hashtbl.t;
  mutable stacks : (zone * region) list;
      (* each zone's stack region, resolved on the zone's first alloca *)
  strings : (string, int) Hashtbl.t; (* interned rodata strings *)
  mutable region_count : int;
  mu : Mutex.t;
  mutable sync : bool; (* serialize accesses (parallel backend) *)
  mutable store_tap : (int -> int -> int64 -> zone -> unit) option;
      (* trace monitor hook (lib/robust): observes every committed store —
         the one choke point both engines, the externals' byte copies, the
         parallel workers and the replication apply path all go through *)
}

exception Fault of int * string

let create () =
  {
    regions = [];
    by_index = Array.make 64 None;
    by_zone = Hashtbl.create 8;
    stacks = [];
    strings = Hashtbl.create 16;
    region_count = 0;
    mu = Mutex.create ();
    sync = false;
    store_tap = None;
  }

let set_store_tap t f = t.store_tap <- f

(* Concurrent mode: every public operation runs under [mu], making the heap
   usable from several domains at once (the parallel backend). The simulated
   backend leaves [sync] off and pays one boolean test per access. Data-level
   races of the *program* (two threads writing one address) keep whatever
   nondeterminism they have — the lock only protects the heap's own
   structures: the region list, the page tables, the bump pointers. *)
let set_concurrent t on = t.sync <- on

let[@inline] locked t f =
  if t.sync then begin
    Mutex.lock t.mu;
    match f () with
    | v ->
      Mutex.unlock t.mu;
      v
    | exception e ->
      Mutex.unlock t.mu;
      raise e
  end
  else f ()

let zone_key = function
  | Unsafe -> "\000U"
  | Rodata -> "\000R"
  | Enclave e -> e

let index_region t r =
  let i = r.base lsr region_bits in
  if i >= Array.length t.by_index then begin
    let grown = Array.make (max (i + 1) (2 * Array.length t.by_index)) None in
    Array.blit t.by_index 0 grown 0 (Array.length t.by_index);
    t.by_index <- grown
  end;
  t.by_index.(i) <- Some r

(* Regions are numbered in creation order, heap and stack alike. *)
let new_region t zone =
  t.region_count <- t.region_count + 1;
  let r =
    {
      zone;
      base = t.region_count lsl region_bits;
      brk = 16; (* offset 0 of the first region would be null *)
      pages = Array.make 16 None;
      live_bytes = 0;
    }
  in
  t.regions <- r :: t.regions;
  index_region t r;
  r

let region_for t zone =
  let key = zone_key zone in
  match Hashtbl.find_opt t.by_zone key with
  | Some r -> r
  | None ->
    let r = new_region t zone in
    Hashtbl.replace t.by_zone key r;
    r

let find_region t addr =
  let i = addr lsr region_bits in
  if i > 0 && i < Array.length t.by_index then
    match Array.unsafe_get t.by_index i with
    | Some r -> r
    | None -> raise (Fault (addr, "unmapped address"))
  else raise (Fault (addr, "unmapped address"))

(* The three per-instruction-frequency operations — [zone_of], [load],
   [store] — hand-inline [locked] so the single-domain backend's path is a
   boolean test with no closure allocation. *)
let zone_of t addr =
  if not t.sync then (find_region t addr).zone
  else begin
    Mutex.lock t.mu;
    match find_region t addr with
    | r ->
      Mutex.unlock t.mu;
      r.zone
    | exception e ->
      Mutex.unlock t.mu;
      raise e
  end

(* Bump allocation. Small objects are 8-byte aligned; objects of a cache
   line or more are line-aligned, as size-class allocators do — this also
   keeps simulated cache behaviour independent of the incidental phase of
   earlier allocations in the zone. *)
let alloc_u t zone size =
  let r = region_for t zone in
  let align = if size >= 64 then 64 else 8 in
  let off = (r.brk + align - 1) land lnot (align - 1) in
  let aligned = (size + align - 1) land lnot (align - 1) in
  if off + aligned >= 1 lsl region_bits then
    raise (Fault (r.base + off, "zone exhausted"));
  r.brk <- off + aligned;
  r.live_bytes <- r.live_bytes + aligned;
  r.base + off

let alloc t zone size = locked t (fun () -> alloc_u t zone size)

(* Stack slots live in a dedicated region per zone so that they do not
   perturb the heap layout; [reset_stacks] rewinds them between requests
   (frames of one request nest, and nothing refers to a dead frame),
   which also models the cache locality of a reused stack. A zone's stack
   region is created on its first alloca, numbered like any other region,
   and found again by a scan of the few zones instead of a hashed key. *)
let stack_region t zone =
  let rec find = function
    | (z, r) :: rest -> if zone_equal z zone then r else find rest
    | [] ->
      let r = new_region t zone in
      t.stacks <- (zone, r) :: t.stacks;
      r
  in
  find t.stacks

let alloc_stack t zone size =
  locked t (fun () ->
      let r = stack_region t zone in
      let aligned = (size + 7) land lnot 7 in
      let off = r.brk in
      if off + aligned >= 1 lsl region_bits then
        raise (Fault (r.base + off, "stack zone exhausted"));
      r.brk <- off + aligned;
      r.base + off)

let reset_stacks t =
  locked t (fun () -> List.iter (fun (_, r) -> r.brk <- 16) t.stacks)

let free t addr size =
  locked t (fun () ->
      match find_region t addr with
      | r -> r.live_bytes <- max 0 (r.live_bytes - ((size + 7) land lnot 7))
      | exception Fault _ -> ())

let page_of r off =
  let pno = off lsr page_bits in
  (if pno >= Array.length r.pages then begin
     let grown = Array.make (max (pno + 1) (2 * Array.length r.pages)) None in
     Array.blit r.pages 0 grown 0 (Array.length r.pages);
     r.pages <- grown
   end);
  match Array.unsafe_get r.pages pno with
  | Some p -> p
  | None ->
    let p = Bytes.make (1 lsl page_bits) '\000' in
    r.pages.(pno) <- Some p;
    p

let load_byte_u t addr =
  if addr = 0 then raise (Fault (0, "null dereference"));
  let r = find_region t addr in
  let off = addr - r.base in
  let p = page_of r off in
  Char.code (Bytes.get p (off land ((1 lsl page_bits) - 1)))

let store_byte_u t addr b =
  if addr = 0 then raise (Fault (0, "null dereference"));
  let r = find_region t addr in
  let off = addr - r.base in
  let p = page_of r off in
  Bytes.set p (off land ((1 lsl page_bits) - 1)) (Char.chr (b land 0xff))

(* Little-endian loads/stores of 1..8 bytes. Fast path: the access stays
   inside one 4 KiB page (the common case — allocations are 8-aligned). *)
let page_mask = (1 lsl page_bits) - 1

let load_u t addr size : int64 =
  if addr = 0 then raise (Fault (0, "null dereference"));
  let r = find_region t addr in
  let off = addr - r.base in
  let in_page = off land page_mask in
  if in_page + size <= 1 lsl page_bits then begin
    let p = page_of r off in
    if size = 8 then Bytes.get_int64_le p in_page
    else begin
      let v = ref 0L in
      for k = size - 1 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get p (in_page + k))))
      done;
      !v
    end
  end
  else begin
    let v = ref 0L in
    for k = size - 1 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (load_byte_u t (addr + k)))
    done;
    !v
  end

let load t addr size =
  if not t.sync then load_u t addr size
  else begin
    Mutex.lock t.mu;
    match load_u t addr size with
    | v ->
      Mutex.unlock t.mu;
      v
    | exception e ->
      Mutex.unlock t.mu;
      raise e
  end

let store_u t addr size (v : int64) =
  if addr = 0 then raise (Fault (0, "null dereference"));
  let r = find_region t addr in
  let off = addr - r.base in
  let in_page = off land page_mask in
  if in_page + size <= 1 lsl page_bits then begin
    let p = page_of r off in
    if size = 8 then Bytes.set_int64_le p in_page v
    else
      for k = 0 to size - 1 do
        Bytes.set p (in_page + k)
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL)))
      done
  end
  else
    for k = 0 to size - 1 do
      store_byte_u t (addr + k)
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
    done

let store t addr size v =
  (if not t.sync then store_u t addr size v
   else begin
     Mutex.lock t.mu;
     match store_u t addr size v with
     | () -> Mutex.unlock t.mu
     | exception e ->
       Mutex.unlock t.mu;
       raise e
   end);
  (* fired after the store commits and outside the heap mutex — the
     monitor serializes itself; the store's region must exist here *)
  match t.store_tap with
  | None -> ()
  | Some f -> f addr size v (find_region t addr).zone

let load_f64 t addr = Int64.float_of_bits (load t addr 8)
let store_f64 t addr f = store t addr 8 (Int64.bits_of_float f)

(* Fold over the materialized pages of a zone (heap and stack regions
   alike) — the robust-safety monitor's whole-zone sweep for secret
   bytes. The page array reference is captured once per region, so a
   concurrent growth hands us a consistent (if slightly stale) view. *)
let fold_zone_pages t z ~init ~f =
  let regions =
    locked t (fun () -> List.filter (fun r -> zone_equal r.zone z) t.regions)
  in
  List.fold_left
    (fun acc r ->
      let pages = r.pages in
      let acc = ref acc in
      Array.iteri
        (fun k p ->
          match p with
          | Some page -> acc := f !acc (r.base + (k lsl page_bits)) page
          | None -> ())
        pages;
      !acc)
    init regions

(* Intern a string literal in rodata; returns its address (NUL-terminated). *)
let intern_string t s =
  locked t (fun () ->
      match Hashtbl.find_opt t.strings s with
      | Some addr -> addr
      | None ->
        let addr = alloc_u t Rodata (String.length s + 1) in
        String.iteri (fun k c -> store_byte_u t (addr + k) (Char.code c)) s;
        store_byte_u t (addr + String.length s) 0;
        Hashtbl.replace t.strings s addr;
        addr)

(* Read a NUL-terminated string back (diagnostics, print_str). *)
let read_string ?(max = 4096) t addr =
  locked t (fun () ->
      let buf = Buffer.create 16 in
      let rec go k =
        if k < max then
          let b = load_byte_u t (addr + k) in
          if b <> 0 then begin
            Buffer.add_char buf (Char.chr b);
            go (k + 1)
          end
      in
      go 0;
      Buffer.contents buf)

let live_bytes t zone =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_zone (zone_key zone) with
      | Some r -> r.live_bytes
      | None -> 0)
