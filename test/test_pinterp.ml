(* Partitioned execution tests: functional equivalence with the plain
   interpreter, message accounting, virtual-time latencies, persistence
   across requests, thread spawning. *)

open Privagic_secure
open Privagic_vm
module P = Privagic_workloads.Programs
module Sgx = Privagic_sgx

let test_fig6_equivalence () =
  let plain_v, plain_out = Helpers.run_plain P.fig6 "main" [] in
  let part_v, part_out = Helpers.run_partitioned ~mode:Mode.Relaxed P.fig6 "main" [] in
  Alcotest.(check int64) "same value" (Rvalue.to_int64 plain_v)
    (Rvalue.to_int64 part_v);
  Alcotest.(check string) "same output" plain_out part_out

let test_fig6_messages () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let _ = Pinterp.call_entry pt "main" [] in
  let c = Sgx.Machine.counters (Pinterp.machine pt) in
  (* Fig. 7: s1..s3 spawns, c1..c5 conts, completions — several crossings,
     but bounded *)
  Alcotest.(check bool) "crossings happened" true (c.Sgx.Machine.queue_msgs >= 4);
  Alcotest.(check bool) "crossings bounded" true (c.Sgx.Machine.queue_msgs <= 16)

let test_latency_positive_and_persistent () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let r1 = Pinterp.call_entry pt "main" [] in
  let r2 = Pinterp.call_entry pt "main" [] in
  Alcotest.(check bool) "latency > 0" true (r1.Pinterp.latency_cycles > 0.0);
  Alcotest.(check bool) "virtual time advances" true
    (r2.Pinterp.completed_at > r1.Pinterp.completed_at);
  (* warm caches: the second request is no slower *)
  Alcotest.(check bool) "warm request not slower" true
    (r2.Pinterp.latency_cycles <= r1.Pinterp.latency_cycles)

let test_state_persists_across_requests () =
  let src =
    {|
ignore extern void classify_i64(int* d, int v);
ignore extern void declassify_i64(int* d, int v);
int color(blue) counter;
int rstatus;
entry int bump(int by) {
  int color(blue) k;
  classify_i64(&k, by);
  counter = counter + k;
  declassify_i64(&rstatus, counter);
  return rstatus;
}
|}
  in
  let pt = Helpers.pinterp ~mode:Mode.Hardened src in
  let v1 = (Pinterp.call_entry pt "bump" [ Helpers.rvalue_int 5 ]).Pinterp.value in
  let v2 = (Pinterp.call_entry pt "bump" [ Helpers.rvalue_int 7 ]).Pinterp.value in
  Alcotest.(check int64) "first" 5L (Rvalue.to_int64 v1);
  Alcotest.(check int64) "accumulated" 12L (Rvalue.to_int64 v2)

let roundtrip_structure ~mode src ~put ~get =
  let pt = Helpers.pinterp ~mode src in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 128 in
  let obuf = Heap.alloc heap Heap.Unsafe 128 in
  for i = 0 to 7 do
    Heap.store heap (vbuf + i) 1 (Int64.of_int (65 + i))
  done;
  (* insert three keys, update one, then read *)
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt put [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 3; 11; 19 ];
  Heap.store heap vbuf 1 90L;
  ignore (Pinterp.call_entry pt put [ Helpers.rvalue_int 11; Rvalue.Ptr vbuf ]);
  let hit k =
    Rvalue.to_int64
      (Pinterp.call_entry pt get [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
        .Pinterp.value
  in
  Alcotest.(check int64) "hit 3" 1L (hit 3);
  Alcotest.(check int64) "miss 4" 0L (hit 4);
  Alcotest.(check int64) "hit 11" 1L (hit 11);
  Alcotest.(check int64) "updated value visible" 90L
    (Heap.load heap obuf 1)

let test_hashmap_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.hashmap ~nbuckets:64 ~vsize:32 `Colored)
    ~put:"hm_put" ~get:"hm_get"

let test_llist_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.linked_list ~vsize:32 `Colored)
    ~put:"ll_put" ~get:"ll_get"

let test_rbtree_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.rbtree ~vsize:32 `Colored)
    ~put:"tm_put" ~get:"tm_get"

let test_two_color_partitioned () =
  roundtrip_structure ~mode:Mode.Relaxed
    (P.hashmap_two_color ~nbuckets:64 ~vsize:32 `Colored)
    ~put:"h2_put" ~get:"h2_get"

let test_rbtree_ordering_respected () =
  (* many keys: the tree must stay a valid search structure under the
     partitioned execution *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened (P.rbtree ~vsize:16 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  let keys = List.init 64 (fun i -> (i * 37) mod 101) in
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "tm_put" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    keys;
  List.iter
    (fun k ->
      let v =
        (Pinterp.call_entry pt "tm_get" [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
          .Pinterp.value
      in
      Alcotest.(check int64)
        (Printf.sprintf "key %d found" k)
        1L (Rvalue.to_int64 v))
    keys;
  let missing =
    (Pinterp.call_entry pt "tm_get" [ Helpers.rvalue_int 9999; Rvalue.Ptr obuf ])
      .Pinterp.value
  in
  Alcotest.(check int64) "absent key" 0L (Rvalue.to_int64 missing)

let test_memcached_partitioned () =
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened
      (P.memcached ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  ignore (Pinterp.call_entry pt "mc_init" [ Helpers.rvalue_int 3 ]);
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "mc_set" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 1; 2; 3; 4; 5 ];
  (* capacity 3: keys 1 and 2 evicted in LRU order *)
  let get k =
    Rvalue.to_int64
      (Pinterp.call_entry pt "mc_get" [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
        .Pinterp.value
  in
  Alcotest.(check int64) "evicted 1" 0L (get 1);
  Alcotest.(check int64) "evicted 2" 0L (get 2);
  Alcotest.(check int64) "kept 4" 1L (get 4);
  let count =
    Rvalue.to_int64 (Pinterp.call_entry pt "mc_count" []).Pinterp.value
  in
  Alcotest.(check int64) "count" 3L count;
  let evictions =
    Rvalue.to_int64
      (Pinterp.call_entry pt "mc_stat" [ Helpers.rvalue_int 3 ]).Pinterp.value
  in
  Alcotest.(check int64) "evictions" 2L evictions

let test_memcached_maintenance_thread () =
  (* shrink the capacity, then let the background thread evict the excess
     — the paper's multi-threaded memcached structure (§9.2) *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened
      (P.memcached ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  ignore (Pinterp.call_entry pt "mc_init" [ Helpers.rvalue_int 100 ]);
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "mc_set" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 1; 2; 3; 4; 5 ];
  ignore (Pinterp.call_entry pt "mc_set_capacity" [ Helpers.rvalue_int 2 ]);
  ignore (Pinterp.call_entry pt "mc_maintain" []);
  let count =
    Rvalue.to_int64 (Pinterp.call_entry pt "mc_count" []).Pinterp.value
  in
  Alcotest.(check int64) "crawler evicted down to capacity" 2L count

let test_spawned_thread () =
  (* a spawned thread writes into the blue enclave via its own workers *)
  let src =
    {|
ignore extern void classify_i64(int* d, int v);
ignore extern void declassify_i64(int* d, int v);
int color(blue) cell;
int rstatus;
void worker(int v) {
  int color(blue) k;
  classify_i64(&k, v);
  cell = k;
}
entry void start(int v) { spawn worker(v); }
entry int read_cell() {
  declassify_i64(&rstatus, cell);
  return rstatus;
}
|}
  in
  let pt = Helpers.pinterp ~mode:Mode.Hardened src in
  ignore (Pinterp.call_entry pt "start" [ Helpers.rvalue_int 77 ]);
  let v = (Pinterp.call_entry pt "read_cell" []).Pinterp.value in
  Alcotest.(check int64) "thread effect visible" 77L (Rvalue.to_int64 v)

let test_crossing_cost_scales_latency () =
  let mk crossing =
    let plan = Helpers.plan_of ~mode:Mode.Relaxed P.fig6 in
    Pinterp.create ~config:Sgx.Config.machine_test ~crossing plan
  in
  let cheap = mk (fun _ -> 100.0) in
  let expensive = mk (fun _ -> 10_000.0) in
  let l1 = (Pinterp.call_entry cheap "main" []).Pinterp.latency_cycles in
  let l2 = (Pinterp.call_entry expensive "main" []).Pinterp.latency_cycles in
  Alcotest.(check bool) "latency grows with crossing cost" true (l2 > l1 +. 9_000.0)

let test_concurrent_client_threads () =
  (* the paper's headline claim: partitioning stays correct with multiple
     threads. Two client threads (distinct worker sets, shared map)
     interleave sets and gets; the map must stay coherent and each
     thread's virtual clock advances independently. *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened (P.hashmap ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  for i = 0 to 9 do
    let thread = i mod 2 in
    ignore
      (Pinterp.call_entry pt ~thread "hm_put"
         [ Helpers.rvalue_int i; Rvalue.Ptr vbuf ])
  done;
  (* either thread sees every key *)
  for i = 0 to 9 do
    let thread = (i + 1) mod 2 in
    let v =
      (Pinterp.call_entry pt ~thread "hm_get"
         [ Helpers.rvalue_int i; Rvalue.Ptr obuf ])
        .Pinterp.value
    in
    Alcotest.(check int64) (Printf.sprintf "key %d visible cross-thread" i) 1L
      (Rvalue.to_int64 v)
  done;
  (* both threads have their own blue workers *)
  Alcotest.(check bool) "thread 0 blue worker" true
    (Pinterp.has_worker pt ~thread:0 (Privagic_pir.Color.Named "blue"));
  Alcotest.(check bool) "thread 1 blue worker" true
    (Pinterp.has_worker pt ~thread:1 (Privagic_pir.Color.Named "blue"))

(* run --schedule: the text schedule read off the VM's ring *)
let test_trace () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let module Ring = Privagic_obs.Ring in
  let ring = Ring.create ~clock:Ring.Virtual ~id:0 ~label:"" () in
  Pinterp.attach_ring pt ring;
  ignore (Pinterp.call_entry pt "main" []);
  let text = Format.asprintf "%a" Privagic_obs.Schedule.pp [ ring ] in
  let lines =
    List.filter (fun l -> l <> "") (List.tl (String.split_on_char '\n' text))
  in
  let has what track event =
    Alcotest.(check bool) what true
      (List.exists
         (fun l -> Helpers.contains l track && Helpers.contains l event)
         lines)
  in
  has "U spawns the blue chunk" "t0/U" "spawn   -> t0/blue";
  has "main#blue starts in blue" "t0/blue" "start   main#blue";
  has "retval cont to U" "t0/" "retval  -> t0/U";
  has "g executed in red" "t0/red" "end     g#red";
  (* the schedule is in virtual-time order, from 0 *)
  let times =
    List.map (fun l -> float_of_string (String.trim (String.sub l 0 10))) lines
  in
  Alcotest.(check bool) "non-negative, ordered times" true
    (List.for_all (fun t -> t >= 0.0) times && List.sort compare times = times)

(* ------------------------------------------------------------------ *)
(* resolution differential: Dispatch.create resolves every partitioned
   function once; each resolved record must say exactly what the
   plan-level derivations say, for every call site and participant *)

let shipped_sources () =
  let both name f = [ (name, f `Colored); (name ^ " (plain)", f `Plain) ] in
  let examples =
    let dir = List.find Sys.file_exists [ "../examples"; "examples" ] in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat dir f) in
           let src = really_input_string ic (in_channel_length ic) in
           close_in ic;
           ("examples/" ^ f, src))
  in
  both "hashmap" (P.hashmap ~nbuckets:16 ~vsize:16)
  @ both "linked_list" (P.linked_list ~vsize:16)
  @ both "rbtree" (P.rbtree ~vsize:16)
  @ both "hashmap_two_color" (P.hashmap_two_color ~nbuckets:16 ~vsize:16)
  @ both "memcached" (P.memcached ~nbuckets:16 ~vsize:16)
  @ [ ("fig1", P.fig1); ("fig3_dataflow", P.fig3_dataflow);
      ("fig3_secure", P.fig3_secure); ("fig4", P.fig4); ("fig6", P.fig6);
      ("indexed_accounts", P.indexed_accounts) ]
  @ examples

(* Every (source, mode) that checks and partitions without diagnostics. *)
let shipped_plans () =
  List.concat_map
    (fun (name, src) ->
      List.filter_map
        (fun mode ->
          let m = Helpers.compile src in
          let infer = Infer.run ~mode m in
          if not (Infer.ok infer) then None
          else
            let plan = Privagic_partition.Plan.build ~mode infer in
            if plan.Privagic_partition.Plan.diagnostics <> [] then None
            else Some (Printf.sprintf "%s/%s" name (Mode.to_string mode), plan))
        [ Mode.Hardened; Mode.Relaxed ])
    (shipped_sources ())

let check_resolution (name, (plan : Privagic_partition.Plan.t)) =
  let module Plan = Privagic_partition.Plan in
  let module Color = Privagic_pir.Color in
  let module Func = Privagic_pir.Func in
  let module Instr = Privagic_pir.Instr in
  let m = plan.Plan.pmodule in
  let nop _ _ _ _ = Rvalue.zero in
  let hooks =
    { Exec.h_call = nop; h_callind = nop; h_spawn = (fun _ _ _ _ -> ());
      h_pre_instr = (fun _ _ -> ()); h_alloca_zone = (fun _ _ -> Heap.Unsafe) }
  in
  let ex =
    Exec.create m (Heap.create ())
      (Layout.create ~auth_pointers:plan.Plan.auth_pointers m plan.Plan.mode)
      (Sgx.Machine.create Sgx.Config.machine_test) hooks
  in
  Exec.init_globals ex (Dispatch.global_zone plan);
  let image = Image.build ~plan ex in
  let disp : unit Dispatch.t = Dispatch.create ~image plan in
  let records = Dispatch.records disp in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  (* every function has its own record, reachable without a fresh build *)
  Hashtbl.iter
    (fun _ (pf : Plan.pfunc) ->
      let own = match pf.Plan.pf_colorset with [] -> [ Color.Free ] | cs -> cs in
      if not (List.memq (Dispatch.shape disp pf own) records) then
        fail "no record for %s"
          (Infer.instance_name pf.Plan.pf_key))
    plan.Plan.pfuncs;
  List.iter
    (fun (ep : Plan.entry_plan) ->
      match Dispatch.entry disp ep.Plan.ep_name with
      | Some en when en.Dispatch.en_rf.Dispatch.rf_pf.Plan.pf_key = ep.Plan.ep_key -> ()
      | _ -> fail "entry %s unresolved" ep.Plan.ep_name)
    plan.Plan.entries;
  List.iter
    (fun (rf : Dispatch.rfunc) ->
      let pf = rf.Dispatch.rf_pf in
      let parts = rf.Dispatch.rf_participants in
      let fname = Infer.instance_name pf.Plan.pf_key in
      (* chunks and their code *)
      List.iter
        (fun c ->
          match Dispatch.chunk rf c, Dispatch.chunk_for pf c with
          | None, None -> ()
          | Some ch, Some f when ch.Dispatch.ch_func == f -> (
            match ch.Dispatch.ch_code, Image.find_code image f with
            | Some a, Some b when a == b -> ()
            | None, None -> ()
            | _ -> fail "%s: chunk %s has the wrong code" fname f.Func.name)
          | _ -> fail "%s: wrong chunk for %s" fname (Color.to_string c))
        ([ Color.Free; Color.Unsafe; Color.Shared ] @ parts
        @ List.map (fun (ci : Plan.chunk_info) -> ci.Plan.ci_color) pf.Plan.pf_chunks);
      (* barriers and presence, per instruction id *)
      Hashtbl.iter
        (fun id () ->
          if Dispatch.barrier rf id <> Dispatch.barrier_at pf id ~participants:parts
          then fail "%s: barrier at %d" fname id)
        pf.Plan.pf_barriers;
      Array.iteri
        (fun id present ->
          if Dispatch.barrier rf id <> Dispatch.barrier_at pf id ~participants:parts
          then fail "%s: barrier at %d" fname id;
          if present <> Dispatch.site_presence pf id then
            fail "%s: presence of %d" fname id)
        rf.Dispatch.rf_presence;
      (* every instruction of every chunk: its resolved site *)
      List.iter
        (fun (ci : Plan.chunk_info) ->
          Func.iter_instrs ci.Plan.ci_func (fun _ (i : Instr.t) ->
              let id = i.Instr.id in
              match i.Instr.op, Dispatch.resolved rf id with
              | Instr.Call _, Dispatch.Call rs ->
                let cp = Hashtbl.find pf.Plan.pf_calls id in
                let callee_pf = Option.get (Plan.find_pfunc plan cp.Plan.cp_key) in
                let callee_cs = callee_pf.Plan.pf_colorset in
                let p_site =
                  if pf.Plan.pf_colorset = [] then parts
                  else Dispatch.site_presence pf id
                in
                if rs.Dispatch.rs_callee.Dispatch.rf_pf != callee_pf
                   || rs.Dispatch.rs_callee.Dispatch.rf_participants
                      <> (if callee_cs = [] then p_site else callee_cs)
                then fail "%s/%d: callee record" fname id;
                if rs.Dispatch.rs_p_site <> p_site
                   || rs.Dispatch.rs_takers <> List.length p_site
                then fail "%s/%d: site participants" fname id;
                List.iter
                  (fun self ->
                    if Dispatch.site_layout ~p_site ~callee_cs ~self
                       <> rs.Dispatch.rs_layout
                    then fail "%s/%d: layout for %s" fname id (Color.to_string self))
                  p_site;
                if rs.Dispatch.rs_needers
                   <> Dispatch.ret_needers ~caller_pf:pf ~p_site ~callee_cs i
                then fail "%s/%d: return-value needers" fname id;
                if rs.Dispatch.rs_f_reg_args <> Dispatch.f_reg_args cp i then
                  fail "%s/%d: computed F arguments" fname id
              | Instr.Call (callee, _), r ->
                let expected =
                  if Hashtbl.mem pf.Plan.pf_calls id then "a call site"
                  else if Privagic_pir.Pmodule.is_defined m callee then "unplanned"
                  else "an extern"
                in
                (match r, expected with
                | Dispatch.Unplanned, "unplanned" | Dispatch.Extern, "an extern" -> ()
                | _ -> fail "%s/%d: @%s should be %s" fname id callee expected)
              | Instr.Spawn _, r -> (
                match Infer.call_site plan.Plan.infer pf.Plan.pf_key id, r with
                | Some key, Dispatch.Thread t
                  when t.Dispatch.rf_pf.Plan.pf_key = key -> ()
                | None, Dispatch.Unplanned -> ()
                | _ -> fail "%s/%d: thread spawn" fname id)
              | Instr.Callind _, Dispatch.Indirect readers ->
                let expected =
                  match Instr.defines i with
                  | None -> []
                  | Some r ->
                    List.filter_map
                      (fun (ci : Plan.chunk_info) ->
                        if Dispatch.chunk_needs ci.Plan.ci_func r then
                          Some ci.Plan.ci_color
                        else None)
                      pf.Plan.pf_chunks
                in
                if readers <> expected then fail "%s/%d: indirect readers" fname id
              | Instr.Callind _, _ -> fail "%s/%d: indirect call" fname id
              | _, Dispatch.Unplanned -> ()
              | _, _ -> fail "%s/%d: a non-call resolved as a call" fname id))
        pf.Plan.pf_chunks)
    records

let test_resolution_differential () =
  let plans = shipped_plans () in
  (* the shipped corpus partitions: guard against a vacuous pass *)
  Alcotest.(check bool) "at least 20 plans checked" true (List.length plans >= 20);
  List.iter check_resolution plans

let suite =
  [
    Alcotest.test_case "fig6 equivalence" `Quick test_fig6_equivalence;
    Alcotest.test_case "fig6 messages" `Quick test_fig6_messages;
    Alcotest.test_case "latency and persistence" `Quick
      test_latency_positive_and_persistent;
    Alcotest.test_case "state across requests" `Quick
      test_state_persists_across_requests;
    Alcotest.test_case "hashmap partitioned" `Quick test_hashmap_partitioned;
    Alcotest.test_case "linked list partitioned" `Quick test_llist_partitioned;
    Alcotest.test_case "rbtree partitioned" `Quick test_rbtree_partitioned;
    Alcotest.test_case "two colors partitioned" `Quick test_two_color_partitioned;
    Alcotest.test_case "rbtree ordering" `Quick test_rbtree_ordering_respected;
    Alcotest.test_case "memcached partitioned" `Quick test_memcached_partitioned;
    Alcotest.test_case "spawned thread" `Quick test_spawned_thread;
    Alcotest.test_case "memcached maintenance thread" `Quick
      test_memcached_maintenance_thread;
    Alcotest.test_case "crossing cost scales" `Quick
      test_crossing_cost_scales_latency;
    Alcotest.test_case "execution trace" `Quick test_trace;
    Alcotest.test_case "concurrent client threads" `Quick
      test_concurrent_client_threads;
    Alcotest.test_case "resolution differential (shipped programs)" `Quick
      test_resolution_differential;
  ]
