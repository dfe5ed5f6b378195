(* Generic key-value benchmark runner: loads a dataset into one of the
   evaluation programs under a system configuration, replays a YCSB
   workload, and reports throughput / latency / cache statistics. *)

open Privagic_vm
module Sgx = Privagic_sgx
module Ycsb = Privagic_workloads.Ycsb
module Programs = Privagic_workloads.Programs
module System = Privagic_baselines.System

type family = Hashmap | Linked_list | Rbtree | Hashmap2 | Memcached

let family_name = function
  | Hashmap -> "hashmap"
  | Linked_list -> "linked-list"
  | Rbtree -> "treemap"
  | Hashmap2 -> "hashmap-2color"
  | Memcached -> "memcached"

let entries = function
  | Hashmap -> ("hm_put", "hm_get")
  | Linked_list -> ("ll_put", "ll_get")
  | Rbtree -> ("tm_put", "tm_get")
  | Hashmap2 -> ("h2_put", "h2_get")
  | Memcached -> ("mc_set", "mc_get")

let source family (variant : Programs.variant) ~nbuckets ~vsize =
  match family with
  | Hashmap -> Programs.hashmap ~nbuckets ~vsize variant
  | Linked_list -> Programs.linked_list ~vsize variant
  | Rbtree -> Programs.rbtree ~vsize variant
  | Hashmap2 -> Programs.hashmap_two_color ~nbuckets ~vsize variant
  | Memcached -> Programs.memcached ~nbuckets ~vsize variant

(* The secure-typing mode a family runs under: two colors in one structure
   require relaxed mode (§8). *)
let mode_for = function
  | Hashmap2 -> Privagic_secure.Mode.Relaxed
  | _ -> Privagic_secure.Mode.Hardened

type result = {
  family : family;
  system : string;
  record_count : int;
  dataset_bytes : int;
  operations : int;
  throughput_kops : float;       (* thousand operations per second *)
  mean_latency_us : float;
  p_found : float;               (* sanity: fraction of successful reads *)
  llc_miss_ratio : float;
  queue_msgs : int;
  ecalls_switchless : int;
}

(* The colored variant of a family, checked and partitioned under the
   family's mode. *)
let plan_for family ~nbuckets ~vsize =
  let src = source family `Colored ~nbuckets ~vsize in
  let m = Privagic_minic.Driver.compile ~file:"program.mc" src in
  let mode = mode_for family in
  let infer = Privagic_secure.Infer.run ~mode m in
  if not (Privagic_secure.Infer.ok infer) then
    invalid_arg "Kv.plan_for: program rejected by the checker";
  let plan = Privagic_partition.Plan.build ~mode infer in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    invalid_arg "Kv.plan_for: partitioning rejected";
  plan

(* One host-speed pass over a loaded store. The first pass inserts
   fresh records (extra allocation steps); later passes overwrite in
   place, so every pass after it executes the same instruction
   sequence. *)
let replay_pass ~call ~steps ~heap family ~records ~operations ~vsize =
  let put_entry, get_entry = entries family in
  let vbuf = Heap.alloc heap Heap.Unsafe vsize in
  let obuf = Heap.alloc heap Heap.Unsafe vsize in
  String.iteri
    (fun i c -> Heap.store heap (vbuf + i) 1 (Int64.of_int (Char.code c)))
    (Ycsb.value_for ~size:vsize 1);
  (if family = Memcached then
     ignore (call "mc_init" [ Rvalue.Int (Int64.of_int (records * 2)) ]));
  let spec =
    Ycsb.workload_b ~seed:42 ~record_count:records ~operation_count:operations
      ~value_size:vsize ()
  in
  fun () ->
    let steps0 = steps () in
    let t0 = Unix.gettimeofday () in
    for k = 0 to records - 1 do
      ignore (call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
    done;
    let gen = Ycsb.create spec in
    for _ = 1 to operations do
      match Ycsb.next_op gen with
      | Ycsb.Read k | Ycsb.Scan (k, _) | Ycsb.Rmw k ->
        ignore (call get_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ])
      | Ycsb.Update k | Ycsb.Insert k ->
        ignore (call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
    done;
    (steps () - steps0, Unix.gettimeofday () -. t0)

let run ?(config = Sgx.Config.machine_b) ?cost ?(nbuckets = 4096)
    ?(vsize = 1024) ?(distribution = Ycsb.Zipfian) ?(auth_pointers = false)
    (family : family)
    (kind : System.kind) ~(record_count : int) ~(operations : int) () :
    result =
  let src = source family (System.variant kind) ~nbuckets ~vsize in
  let sys = System.create ~config ?cost ~auth_pointers kind src in
  let put_entry, get_entry = entries family in
  let vbuf = System.alloc_buffer sys vsize in
  let obuf = System.alloc_buffer sys vsize in
  (* one deterministic payload per run: what matters to the cost model is
     the byte traffic, not the content *)
  System.write_bytes sys vbuf (Ycsb.value_for ~size:vsize 1);
  (if family = Memcached then
     (* capacity above the dataset: fig. 8 measures the cache effects, not
        evictions *)
     ignore (sys.System.call "mc_init" [ Rvalue.Int (Int64.of_int (record_count * 2)) ]));
  (* load phase *)
  for k = 0 to record_count - 1 do
    ignore (sys.System.call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
  done;
  Sgx.Machine.reset_stats sys.System.machine;
  (* run phase *)
  let spec =
    { (Ycsb.workload_b ~seed:42 ~record_count ~operation_count:operations
         ~value_size:vsize ())
      with Ycsb.distribution }
  in
  let gen = Ycsb.create spec in
  let total_latency = ref 0.0 in
  let found = ref 0 and reads = ref 0 in
  for _ = 1 to operations do
    match Ycsb.next_op gen with
    | Ycsb.Read k | Ycsb.Scan (k, _) ->
      incr reads;
      let v, lat = sys.System.call get_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
      in
      if Rvalue.truthy v then incr found;
      total_latency := !total_latency +. lat
    | Ycsb.Rmw k ->
      incr reads;
      let v, lat = sys.System.call get_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
      in
      if Rvalue.truthy v then incr found;
      let _, lat2 = sys.System.call put_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
      in
      total_latency := !total_latency +. lat +. lat2
    | Ycsb.Update k | Ycsb.Insert k ->
      let _, lat = sys.System.call put_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
      in
      total_latency := !total_latency +. lat
  done;
  let machine = sys.System.machine in
  let seconds = Sgx.Machine.seconds machine !total_latency in
  let counters = Sgx.Machine.counters machine in
  {
    family;
    system = sys.System.name;
    record_count;
    dataset_bytes = record_count * vsize;
    operations;
    throughput_kops =
      (if seconds > 0.0 then float_of_int operations /. seconds /. 1000.0
       else 0.0);
    mean_latency_us =
      (if operations > 0 then
         Sgx.Machine.seconds machine (!total_latency /. float_of_int operations)
         *. 1e6
       else 0.0);
    p_found =
      (if !reads > 0 then float_of_int !found /. float_of_int !reads else 1.0);
    llc_miss_ratio = Sgx.Machine.llc_miss_ratio machine;
    queue_msgs = counters.Sgx.Machine.queue_msgs;
    ecalls_switchless = counters.Sgx.Machine.switchless_calls;
  }
