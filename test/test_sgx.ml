(* Cache model, cost model, machine counters, heap, layout. *)

module Cache = Privagic_sgx.Cache
module Machine = Privagic_sgx.Machine
module Config = Privagic_sgx.Config
module Cost = Privagic_sgx.Cost
open Privagic_vm

let test_cache_hit_miss () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
  let m1, _ = Cache.access c 0 8 in
  Alcotest.(check int) "first access misses" 1 m1;
  let m2, _ = Cache.access c 0 8 in
  Alcotest.(check int) "second hits" 0 m2;
  let m3, _ = Cache.access c 32 8 in
  Alcotest.(check int) "same line hits" 0 m3;
  let m4, _ = Cache.access c 64 8 in
  Alcotest.(check int) "next line misses" 1 m4

let test_cache_eviction () =
  (* 2-way, 8 sets of 64B lines; three lines mapping to the same set *)
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
  let set_stride = 8 * 64 in
  ignore (Cache.access c 0 8);
  ignore (Cache.access c set_stride 8);
  ignore (Cache.access c (2 * set_stride) 8);
  (* line 0 was LRU and must have been evicted *)
  let m, _ = Cache.access c 0 8 in
  Alcotest.(check int) "evicted" 1 m;
  (* most recently used line is still there *)
  let m, _ = Cache.access c (2 * set_stride) 8 in
  Alcotest.(check int) "mru kept" 0 m

let test_cache_multiline () =
  let c = Cache.create ~size_bytes:4096 ~line_bytes:64 ~assoc:4 in
  let misses, lines = Cache.access c 0 256 in
  Alcotest.(check int) "4 lines" 4 lines;
  Alcotest.(check int) "4 misses" 4 misses

let prop_cache_misses_bounded =
  QCheck.Test.make ~count:100 ~name:"misses never exceed touched lines"
    QCheck.(list (pair (int_bound 100_000) (int_range 1 64)))
    (fun accesses ->
      let c = Cache.create ~size_bytes:2048 ~line_bytes:64 ~assoc:2 in
      List.for_all
        (fun (addr, size) ->
          let misses, lines = Cache.access c addr size in
          misses <= lines && lines >= 1)
        accesses)

let test_machine_enclave_miss_amplification () =
  let mk () = Machine.create ~cost:Cost.default Config.machine_test in
  let m1 = mk () in
  let normal = Machine.mem_cost m1 ~cpu:Machine.Normal ~data:Machine.Normal 0x100000 8 in
  let m2 = mk () in
  let enclave =
    Machine.mem_cost m2 ~cpu:(Machine.Enclave "e") ~data:Machine.Normal 0x100000 8
  in
  Alcotest.(check bool) "enclave miss costs more" true (enclave > normal)

let test_machine_epc_fault () =
  (* machine_test has a 1 MiB EPC: touching 2 MiB of enclave pages twice
     must fault on the second pass *)
  let m = Machine.create Config.machine_test in
  let touch () =
    for page = 0 to 511 do
      ignore
        (Machine.mem_cost m ~cpu:(Machine.Enclave "e") ~data:(Machine.Enclave "e")
           (page * 4096) 8)
    done
  in
  touch ();
  let faults_before = (Machine.counters m).Machine.epc_faults in
  touch ();
  let faults_after = (Machine.counters m).Machine.epc_faults in
  Alcotest.(check bool) "epc faults occur" true (faults_after > faults_before);
  (* normal-zone data never occupies EPC *)
  let m2 = Machine.create Config.machine_test in
  for page = 0 to 1023 do
    ignore
      (Machine.mem_cost m2 ~cpu:Machine.Normal ~data:Machine.Normal (page * 4096) 8)
  done;
  Alcotest.(check int) "no epc faults for normal data" 0
    (Machine.counters m2).Machine.epc_faults

let test_machine_counters () =
  let m = Machine.create Config.machine_test in
  ignore (Machine.ecall_cost m);
  ignore (Machine.switchless_cost m);
  ignore (Machine.queue_msg_cost m);
  ignore (Machine.syscall_cost m ~zone:Machine.Normal);
  ignore (Machine.syscall_cost m ~zone:(Machine.Enclave "e"));
  let c = Machine.counters m in
  Alcotest.(check int) "ecalls" 1 c.Machine.ecalls;
  Alcotest.(check int) "switchless" 1 c.Machine.switchless_calls;
  Alcotest.(check int) "msgs" 1 c.Machine.queue_msgs;
  Alcotest.(check int) "syscalls" 1 c.Machine.syscalls;
  Alcotest.(check int) "enclave syscalls" 1 c.Machine.enclave_syscalls;
  Machine.reset_stats m;
  Alcotest.(check int) "reset" 0 (Machine.counters m).Machine.ecalls

let test_seconds () =
  let m = Machine.create Config.machine_test in
  (* 1 GHz -> 1e9 cycles per second *)
  Alcotest.(check (float 1e-9)) "seconds" 1.0 (Machine.seconds m 1e9)

(* A machine's cache models hold only the sets a run has touched: a fresh
   machine B (8131 MiB of EPC, 131 072 page sets) stays under 1 MiB. *)
let test_machine_footprint () =
  let words = Obj.reachable_words (Obj.repr (Machine.create Config.machine_b)) in
  if words > 131_072 then
    Alcotest.failf "fresh machine-B model holds %d words (limit 131072)" words

(* The paper's cost model, pinned: the benchmark's program (memcached,
   1024 buckets, 32 B values, colored, hardened) on machine B serves a
   fixed sequence of 20 000 requests — 5% set, 1% delete, the rest get,
   over 4096 keys against an LRU of 2048 — and the machine counters and
   summed request latency must come out exactly as recorded. Any change
   to the cache, EPC or crossing models moves them. *)
let pinned_counters engine () =
  let plan =
    Helpers.plan_of
      (Privagic_workloads.Programs.memcached ~nbuckets:1024 ~vsize:32 `Colored)
  in
  let pt = Pinterp.create ~engine plan in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 32 in
  let obuf = Heap.alloc heap Heap.Unsafe 32 in
  let int k = Rvalue.Int (Int64.of_int k) in
  let call name args = Pinterp.call_entry pt name args in
  ignore (call "mc_init" [ int 2048 ]);
  (* splitmix64-style mixer over the request index: the sequence must not
     depend on the stdlib's Random *)
  let mix i =
    let open Int64 in
    let step z s m = mul (logxor z (shift_right_logical z s)) m in
    let z = mul (of_int (i + 1)) 0x9E3779B97F4A7C15L in
    let z = step z 30 0xBF58476D1CE4E5B9L in
    let z = step z 27 0x94D049BB133111EBL in
    to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2)
  in
  let latency = ref 0.0 in
  for i = 0 to 19_999 do
    let r = mix i in
    let key = r mod 4096 and dice = (r / 4096) mod 100 in
    let res =
      if dice < 5 then begin
        String.iteri
          (fun j c -> Heap.store heap (vbuf + j) 1 (Int64.of_int (Char.code c)))
          (Printf.sprintf "%08d%024d" key i);
        call "mc_set" [ int key; Rvalue.Ptr vbuf ]
      end
      else if dice < 6 then call "mc_delete" [ int key ]
      else call "mc_get" [ int key; Rvalue.Ptr obuf ]
    in
    latency := !latency +. res.Pinterp.latency_cycles
  done;
  let c = Machine.counters (Pinterp.machine pt) in
  Alcotest.(check int) "instructions" 876_660 c.Machine.instrs;
  Alcotest.(check int) "LLC misses" 1867 c.Machine.llc_misses;
  Alcotest.(check int) "EPC faults" 31 c.Machine.epc_faults;
  Alcotest.(check int) "queue messages" 119_202 c.Machine.queue_msgs;
  Alcotest.(check (float 0.0)) "summed latency cycles" 268_647_707.0 !latency

(* --- heap --- *)

let test_heap_roundtrip () =
  let h = Heap.create () in
  let a = Heap.alloc h Heap.Unsafe 64 in
  Heap.store h a 8 0x1122334455667788L;
  Alcotest.(check int64) "load 8" 0x1122334455667788L (Heap.load h a 8);
  Alcotest.(check int64) "load byte LE" 0x88L (Heap.load h a 1);
  Heap.store h (a + 9) 1 0xffL;
  Alcotest.(check int64) "byte" 0xffL (Heap.load h (a + 9) 1);
  Heap.store_f64 h (a + 16) 3.25;
  Alcotest.(check (float 1e-12)) "float" 3.25 (Heap.load_f64 h (a + 16))

let test_heap_zones () =
  let h = Heap.create () in
  let a = Heap.alloc h Heap.Unsafe 8 in
  let b = Heap.alloc h (Heap.Enclave "blue") 8 in
  Alcotest.(check bool) "zone unsafe" true (Heap.zone_of h a = Heap.Unsafe);
  Alcotest.(check bool) "zone blue" true
    (Heap.zone_of h b = Heap.Enclave "blue");
  Alcotest.(check bool) "distinct regions" true (abs (a - b) > 1_000_000)

let test_heap_null () =
  let h = Heap.create () in
  Alcotest.(check bool) "null load faults" true
    (match Heap.load h 0 8 with exception Heap.Fault _ -> true | _ -> false)

let test_heap_strings () =
  let h = Heap.create () in
  let a = Heap.intern_string h "hello" in
  let b = Heap.intern_string h "hello" in
  Alcotest.(check int) "interned once" a b;
  Alcotest.(check string) "read back" "hello" (Heap.read_string h a)

let test_heap_stack_reset () =
  let h = Heap.create () in
  let a = Heap.alloc_stack h Heap.Unsafe 32 in
  let _b = Heap.alloc_stack h Heap.Unsafe 32 in
  Heap.reset_stacks h;
  let c = Heap.alloc_stack h Heap.Unsafe 32 in
  Alcotest.(check int) "stack reuses addresses" a c;
  (* heap allocations are unaffected by stack reset *)
  let d = Heap.alloc h Heap.Unsafe 32 in
  let e = Heap.alloc h Heap.Unsafe 32 in
  Alcotest.(check bool) "heap monotone" true (e > d)

let test_heap_alignment () =
  let h = Heap.create () in
  let big = Heap.alloc h Heap.Unsafe 100 in
  Alcotest.(check int) "64B aligned" 0 (big mod 64);
  let small = Heap.alloc h Heap.Unsafe 5 in
  Alcotest.(check int) "8B aligned" 0 (small mod 8)

let prop_heap_roundtrip =
  QCheck.Test.make ~count:200 ~name:"heap store/load roundtrip"
    QCheck.(pair (int_bound 4000) int64)
    (fun (off, v) ->
      let h = Heap.create () in
      let base = Heap.alloc h Heap.Unsafe 8192 in
      Heap.store h (base + off) 8 v;
      Int64.equal (Heap.load h (base + off) 8) v)

(* --- layout: multi-color struct splitting --- *)

let test_layout_multicolor () =
  let src =
    {|
struct acc {
  char color(blue) name[16];
  double color(red) balance;
  int plain;
};
entry void f() { }
|}
  in
  let m = Helpers.compile src in
  let layout = Layout.create m Privagic_secure.Mode.Relaxed in
  let l = Layout.struct_layout layout "acc" in
  Alcotest.(check bool) "multicolor" true l.Layout.ls_multicolor;
  (* two 8-byte indirection slots + one inline int *)
  Alcotest.(check int) "rewritten size" 24 l.Layout.ls_size;
  (match l.Layout.ls_fields.(0) with
  | Layout.Indirect (0, Privagic_pir.Color.Named "blue", 16) -> ()
  | _ -> Alcotest.fail "field 0 shape");
  (* allocation splits the fields across zones *)
  let heap = Heap.create () in
  let addr = Layout.alloc layout heap Heap.Unsafe (Privagic_pir.Ty.struct_ "acc") in
  Alcotest.(check bool) "base unsafe" true (Heap.zone_of heap addr = Heap.Unsafe);
  let faddr, indirect = Layout.field_address layout heap "acc" 0 addr in
  Alcotest.(check bool) "field 0 indirect" true indirect;
  Alcotest.(check bool) "field 0 in blue" true
    (Heap.zone_of heap faddr = Heap.Enclave "blue");
  let vaddr, _ = Layout.field_address layout heap "acc" 1 addr in
  Alcotest.(check bool) "field 1 in red" true
    (Heap.zone_of heap vaddr = Heap.Enclave "red")

let test_layout_single_color_inline () =
  let src =
    {|
struct node { int color(blue) key; char color(blue) v[8]; };
entry void f() { }
|}
  in
  let m = Helpers.compile src in
  let layout = Layout.create m Privagic_secure.Mode.Hardened in
  let l = Layout.struct_layout layout "node" in
  Alcotest.(check bool) "not multicolor" false l.Layout.ls_multicolor;
  Alcotest.(check int) "packed size" 16 l.Layout.ls_size

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache multiline" `Quick test_cache_multiline;
    QCheck_alcotest.to_alcotest prop_cache_misses_bounded;
    Alcotest.test_case "enclave miss amplification" `Quick
      test_machine_enclave_miss_amplification;
    Alcotest.test_case "epc faults" `Quick test_machine_epc_fault;
    Alcotest.test_case "machine counters" `Quick test_machine_counters;
    Alcotest.test_case "cycles to seconds" `Quick test_seconds;
    Alcotest.test_case "machine footprint" `Quick test_machine_footprint;
    Alcotest.test_case "pinned cost-model counters (walk)" `Quick
      (pinned_counters Exec.Walk);
    Alcotest.test_case "pinned cost-model counters (image)" `Quick
      (pinned_counters Exec.Image);
    Alcotest.test_case "heap roundtrip" `Quick test_heap_roundtrip;
    Alcotest.test_case "heap zones" `Quick test_heap_zones;
    Alcotest.test_case "heap null" `Quick test_heap_null;
    Alcotest.test_case "heap strings" `Quick test_heap_strings;
    Alcotest.test_case "heap stack reset" `Quick test_heap_stack_reset;
    Alcotest.test_case "heap alignment" `Quick test_heap_alignment;
    QCheck_alcotest.to_alcotest prop_heap_roundtrip;
    Alcotest.test_case "layout multicolor" `Quick test_layout_multicolor;
    Alcotest.test_case "layout single color" `Quick test_layout_single_color_inline;
  ]
