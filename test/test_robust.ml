(* The adversarial robust-safety subsystem (lib/robust): monitor
   semantics, the shrinker, a quick fuzz campaign over the full
   {walk,image} x {sim,parallel} matrix, mutant kill rate, the
   attack-surface and Fig. 3 known-leak regressions, and the wire taps
   of the serving and replication layers. *)

open Privagic_secure
open Privagic_vm
module Plan = Privagic_partition.Plan
module Driver = Privagic_robust.Driver
module Monitor = Privagic_robust.Monitor
module Gen = Privagic_robust.Gen
module Progen = Privagic_robust.Progen
module Rng = Privagic_robust.Rng
module Delta = Privagic_replication.Delta
module Log = Privagic_replication.Log
module Shipper = Privagic_replication.Shipper
module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Taint = Privagic_dataflow.Taint
module Interleave = Privagic_dataflow.Interleave
module Programs = Privagic_workloads.Programs

(* shifted by main.ml's [--seed]; 1 keeps the pinned corpus *)
let base_seed = ref 1

let with_repro f =
  try f ()
  with e ->
    Printf.eprintf
      "\nreproduce: dune exec test/main.exe -- test robust --seed %d\n%!"
      !base_seed;
    raise e

let sentinel_of seed = Rng.sentinel (Rng.make seed)

(* ------------------------------------------------------------------ *)
(* monitor semantics                                                   *)

let test_monitor_store_tap () =
  let mon = Monitor.create () in
  let s = sentinel_of 42 in
  Monitor.plant mon s;
  (* a live secret stored inside an enclave zone is fine *)
  Monitor.store_tap mon 0x10 8 s (Heap.Enclave "blue");
  Alcotest.(check bool) "enclave store ok" true (Monitor.ok mon);
  (* the same store into unprotected memory is the leak *)
  Monitor.store_tap mon 0x20 8 s Heap.Unsafe;
  match Monitor.violations mon with
  | [ v ] -> Alcotest.(check string) "kind" "store" v.Monitor.v_kind
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_monitor_declassify_window () =
  let mon = Monitor.create () in
  let s = sentinel_of 43 in
  Monitor.plant mon s;
  (* a legitimate declassification retires the sentinel... *)
  Monitor.declassify_value mon ~where:"test" s;
  Alcotest.(check bool) "authorized declassify" true (Monitor.ok mon);
  (* ...after which it may appear in unprotected memory *)
  Monitor.store_tap mon 0x20 8 s Heap.Unsafe;
  Alcotest.(check bool) "retired secret may leave" true (Monitor.ok mon);
  (* a declassification coerced by a forged spawn is a leak *)
  let s2 = sentinel_of 44 in
  Monitor.plant mon s2;
  Monitor.set_adversarial mon true;
  Monitor.declassify_value mon ~where:"test" s2;
  Monitor.set_adversarial mon false;
  match Monitor.violations mon with
  | [ v ] -> Alcotest.(check string) "kind" "declassify" v.Monitor.v_kind
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_monitor_scan_and_wire () =
  let mon = Monitor.create () in
  let s = sentinel_of 45 in
  (* plant after writing: the sweep must still find the residue *)
  let heap = Heap.create () in
  let a = Heap.alloc heap Heap.Unsafe 64 in
  Heap.store heap (a + 16) 8 s;
  Monitor.plant mon s;
  Monitor.scan_heap mon ~where:"test" heap;
  (match Monitor.violations mon with
  | [ v ] -> Alcotest.(check string) "kind" "memory" v.Monitor.v_kind
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  (* wire capture: plaintext pattern is flagged, a sealed frame is not *)
  let mon2 = Monitor.create () in
  Monitor.plant mon2 s;
  let d =
    { Delta.seq = 1; op = Delta.Put { key = 1; color = "blue"; payload = Monitor.le_bytes s } }
  in
  Monitor.check_wire mon2 ~where:"plain" (Delta.render ~sealer:None d);
  Alcotest.(check bool) "plaintext frame flagged" false (Monitor.ok mon2);
  let mon3 = Monitor.create () in
  Monitor.plant mon3 s;
  let sealer ~color ~nonce payload =
    Privagic_replication.Seal.seal
      ~key:(Privagic_replication.Seal.derive ~cluster:"test" color)
      ~nonce payload
  in
  Monitor.check_wire mon3 ~where:"sealed" (Delta.render ~sealer:(Some sealer) d);
  Alcotest.(check bool) "sealed frame clean" true (Monitor.ok mon3)

(* ------------------------------------------------------------------ *)
(* the shrinker                                                        *)

let test_shrink_greedy () =
  (* a synthetic failure needing exactly the probes at offsets 3 and 7:
     greedy one-at-a-time removal must reduce to those two actions *)
  let acts = List.init 10 (fun k -> Gen.Probe { global = "g"; off = k }) in
  let has off l =
    List.exists (function Gen.Probe { off = o; _ } -> o = off | _ -> false) l
  in
  let recheck l = has 3 l && has 7 l in
  let shrunk = Driver.shrink ~recheck acts in
  Alcotest.(check int) "two actions left" 2 (List.length shrunk);
  Alcotest.(check bool) "kept 3" true (has 3 shrunk);
  Alcotest.(check bool) "kept 7" true (has 7 shrunk)

(* ------------------------------------------------------------------ *)
(* the campaign: quick batch over the full matrix, all mutants killed  *)

let test_fuzz_smoke () =
  with_repro (fun () ->
      let rp = Driver.fuzz ~seed:!base_seed ~programs:12 () in
      Alcotest.(check int) "all four cells ran" 4 (List.length rp.Driver.rp_cells);
      Alcotest.(check int) "zero secrecy violations" 0
        (Driver.violations_total rp);
      Alcotest.(check int) "16 mutant runs" 16 (List.length rp.Driver.rp_kills);
      Alcotest.(check (float 0.0)) "full kill rate" 1.0 (Driver.kill_rate rp);
      Alcotest.(check bool) "campaign passed" true (Driver.passed rp))

let test_mutants_killed_everywhere () =
  with_repro (fun () ->
      List.iter
        (fun cell ->
          List.iter
            (fun m ->
              let k = Driver.run_mutant cell m ~seed:!base_seed in
              if not k.Driver.k_killed then
                Alcotest.failf "mutant %s survived on %s" k.Driver.k_mutant
                  k.Driver.k_cell)
            Driver.all_mutants)
        Driver.all_cells)

(* ------------------------------------------------------------------ *)
(* seeded known-leak regressions (the examples, wired into the suite)  *)

(* examples/attack_surface.ml, attack 2: the audit chunk exists in the
   plan but is not a valid spawn target — the §8 guard must reject a
   forged spawn of it, and dropping the guard is exactly the leak the
   drop_guard mutant plants *)
let test_forged_spawn_guard () =
  let plan = Helpers.plan_of ~mode:Mode.Hardened Progen.victim_forged_spawn in
  let srf = Gen.surface plan in
  Alcotest.(check bool) "an illegal spawn target exists" true
    (srf.Gen.s_illegal <> []);
  let color, chunk, _ = List.hd srf.Gen.s_illegal in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "set_vault" [ Rvalue.Int 1L ]);
  (match Pinterp.inject_spawn pt ~color ~chunk [ Rvalue.Int 666L ] with
  | Ok () -> Alcotest.failf "guard accepted forged spawn of %s" chunk
  | Error _ -> ());
  Pinterp.set_spawn_guard pt false;
  match Pinterp.inject_spawn pt ~color ~chunk [ Rvalue.Int 666L ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "guard off, spawn still blocked: %s" e

(* examples/attack_surface.ml, attack 3: corrupting the unsafe [slot]
   pointer redirects the enclave's secret store into attacker memory —
   the monitor catches the leak in relaxed mode, and authenticated
   pointers prevent it outright in hardened mode *)
let multicolor_pinterp ~mode ~auth =
  let m =
    Privagic_minic.Driver.compile ~file:"multicolor.mc" Progen.victim_multicolor
  in
  let infer = Infer.run ~mode ~auth_pointers:auth m in
  Alcotest.(check bool) "multicolor accepted" true (Infer.ok infer);
  let plan = Plan.build ~mode ~auth_pointers:auth infer in
  Alcotest.(check bool) "multicolor plan ok" true (Plan.ok plan);
  Pinterp.create ~config:Privagic_sgx.Config.machine_test plan

let corrupt_slot pt =
  let heap = pt.Pinterp.exec.Exec.heap in
  let g = Hashtbl.find pt.Pinterp.exec.Exec.globals "slot" in
  let base = Int64.to_int (Heap.load heap g 8) in
  let forged = Heap.alloc heap Heap.Unsafe 16 in
  Heap.store heap base 8 (Int64.of_int forged)

let test_multicolor_corruption () =
  (* relaxed, unauthenticated pointers: the redirected store leaks, and
     the monitor sees the live secret land in the Unsafe zone *)
  let pt = multicolor_pinterp ~mode:Mode.Relaxed ~auth:false in
  let mon = Monitor.create () in
  Monitor.attach mon pt.Pinterp.exec;
  ignore (Pinterp.call_entry pt "init" []);
  ignore (Pinterp.call_entry pt "set_key" [ Rvalue.Int 9L ]);
  corrupt_slot pt;
  let s = sentinel_of 46 in
  Monitor.plant mon s;
  ignore (Pinterp.call_entry pt "set_key" [ Rvalue.Int s ]);
  (match Monitor.violations mon with
  | v :: _ -> Alcotest.(check string) "leak kind" "store" v.Monitor.v_kind
  | [] -> Alcotest.fail "redirected secret store not caught");
  Monitor.detach pt.Pinterp.exec;
  (* hardened with authenticated pointers: the corrupted indirection
     faults instead, and no secret reaches unprotected memory *)
  let pt = multicolor_pinterp ~mode:Mode.Hardened ~auth:true in
  let mon = Monitor.create () in
  Monitor.attach mon pt.Pinterp.exec;
  ignore (Pinterp.call_entry pt "init" []);
  ignore (Pinterp.call_entry pt "set_key" [ Rvalue.Int 9L ]);
  corrupt_slot pt;
  let s2 = sentinel_of 47 in
  Monitor.plant mon s2;
  let faulted =
    match Pinterp.call_entry pt "set_key" [ Rvalue.Int s2 ] with
    | _ -> false
    | exception Pinterp.Error _ -> true
    | exception Heap.Fault _ -> true
  in
  Monitor.scan_heap mon ~where:"post-fault" pt.Pinterp.exec.Exec.heap;
  Alcotest.(check bool) "authenticated pointer faults" true faulted;
  Alcotest.(check bool) "no secret escaped" true (Monitor.ok mon);
  Monitor.detach pt.Pinterp.exec

(* examples/multithreaded_leak.ml (paper Fig. 3): the sequential taint
   baseline misses the racy leak the interleaving oracle exhibits —
   the ground-truth "known leak" the trace monitor's dynamic view is
   built against — while explicit secure typing rejects it statically *)
let test_fig3_known_leak () =
  let m = Helpers.compile Programs.fig3_dataflow in
  let taint = Taint.analyze m in
  Alcotest.(check bool) "static taint leaves b unprotected" true
    (Taint.leaks_to taint "b");
  let outcomes = Interleave.explore m ~entry:"main" ~max_offset:20 in
  Alcotest.(check bool) "an interleaving leaks the secret" true
    (List.exists
       (fun oc -> Interleave.global_value oc "b" = Some 4242L)
       outcomes);
  Alcotest.(check bool) "secure typing rejects it statically" true
    (Helpers.diagnostics ~mode:Mode.Relaxed Programs.fig3_secure <> [])

(* ------------------------------------------------------------------ *)
(* wire taps                                                           *)

(* the replication shipper: every byte rendered for a link passes the
   tap before the link hands it out for a socket; a secret-colored
   payload is sealed, so the monitor finds no live pattern on the wire *)
let test_shipper_wire_tap () =
  let s = sentinel_of 48 in
  let mon = Monitor.create () in
  Monitor.plant mon s;
  let captured = Buffer.create 256 in
  Shipper.set_wire_tap
    (Some
       (fun frame ->
         Buffer.add_string captured frame;
         Monitor.check_wire mon ~where:"shipper" frame));
  let log = Log.create () in
  ignore
    (Log.append log (Delta.Put { key = 1; color = "blue"; payload = Monitor.le_bytes s })
      : int);
  let hub = Shipper.create ~cluster:"robust-test" ~log () in
  let l = Shipper.attach hub ~sync:false ~from_seq:0 in
  Shipper.fill hub l ~now:0.0;
  let wire = Shipper.output l in
  Shipper.set_wire_tap None;
  Alcotest.(check bool) "the link rendered the frame" true (String.length wire > 16);
  Alcotest.(check string) "the tap saw every byte the link hands out" wire
    (Buffer.contents captured);
  Alcotest.(check bool) "secret sealed on the wire" true (Monitor.ok mon);
  Alcotest.(check bool) "payload was sealed" true (Shipper.sealed_count hub >= 1)

(* the serving layer: every rendered response passes the tap *)
let test_server_wire_tap () =
  let plan = Driver.plan_of (Progen.kv_hashmap ~nbuckets:8 ~vsize:32) in
  let store = Server.store_of_pinterp (Pinterp.create ~config:Privagic_sgx.Config.machine_test plan) in
  let bnd =
    match Server.bindings_of_plan plan with
    | Some b -> b
    | None -> Alcotest.fail "bindings_of_plan failed"
  in
  let captured = Buffer.create 256 in
  Server.set_wire_tap (Some (fun resp -> Buffer.add_string captured resp));
  let cfg = { Server.default_config with Server.port = 0; vsize = 32 } in
  let srv = Server.start cfg bnd [| store |] in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let req = Protocol.render_request (Protocol.Set (1, "abc")) in
  let rb = Bytes.of_string req in
  ignore (Unix.write fd rb 0 (Bytes.length rb) : int);
  let buf = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let got = ref 0 in
  while !got = 0 && Unix.gettimeofday () < deadline do
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> got := Unix.read fd buf 0 (Bytes.length buf)
  done;
  Unix.close fd;
  Server.drain srv;
  Server.set_wire_tap None;
  Alcotest.(check bool) "client got a response" true (!got > 0);
  Alcotest.(check bool) "tap saw the response" true (Buffer.length captured > 0)

let suite =
  [
    Alcotest.test_case "monitor: store tap" `Quick test_monitor_store_tap;
    Alcotest.test_case "monitor: declassify window" `Quick
      test_monitor_declassify_window;
    Alcotest.test_case "monitor: sweep and wire" `Quick
      test_monitor_scan_and_wire;
    Alcotest.test_case "shrinker is greedy-minimal" `Quick test_shrink_greedy;
    Alcotest.test_case "fuzz smoke: full matrix" `Quick test_fuzz_smoke;
    Alcotest.test_case "mutants killed on every cell" `Quick
      test_mutants_killed_everywhere;
    Alcotest.test_case "regression: forged spawn guard" `Quick
      test_forged_spawn_guard;
    Alcotest.test_case "regression: multicolor corruption" `Quick
      test_multicolor_corruption;
    Alcotest.test_case "regression: fig3 known leak" `Quick
      test_fig3_known_leak;
    Alcotest.test_case "wire tap: replication shipper" `Quick
      test_shipper_wire_tap;
    Alcotest.test_case "wire tap: serving layer" `Quick test_server_wire_tap;
  ]
