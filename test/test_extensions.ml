(* The §8 future-work extensions: the valid-spawn-sequence guard and
   authenticated pointers — plus the Iago attack surface demonstration
   (hardened vs relaxed). *)

open Privagic_secure
open Privagic_pir
open Privagic_vm
module Plan = Privagic_partition.Plan


let build ?(mode = Mode.Hardened) ?(auth = false) src =
  let m = Helpers.compile src in
  let infer = Infer.run ~mode ~auth_pointers:auth m in
  if not (Infer.ok infer) then
    Alcotest.failf "diagnostics: %s"
      (String.concat "; "
         (List.map Diagnostic.to_string infer.Infer.diagnostics));
  let plan = Plan.build ~mode ~auth_pointers:auth infer in
  Alcotest.(check bool) "plan ok" true (Plan.ok plan);
  plan

(* --- spawn guard --- *)

let test_valid_spawn_targets () =
  let plan = build Helpers.victim_src in
  let blue_targets = Plan.valid_spawn_targets plan (Color.Named "blue") in
  (* the entry interfaces legitimately spawn the blue chunks *)
  Alcotest.(check bool) "set_vault's blue chunk spawnable" true
    (List.exists (fun n -> Helpers.contains n "set_vault") blue_targets);
  (* nothing is ever spawned into red *)
  Alcotest.(check (list string)) "no red targets" []
    (Plan.valid_spawn_targets plan (Color.Named "red"))

let test_guard_blocks_forged_spawn () =
  let plan = build Helpers.victim_src in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "set_vault" [ Helpers.rvalue_int 41 ]);
  (* the attacker tries to start the blue set_vault chunk directly with a
     chosen argument: that chunk IS a valid spawn target (the interface
     spawns it), so sequence-level replay is still possible... *)
  let legit_chunk = "set_vault@U#blue" in
  (match Pinterp.inject_spawn pt ~color:(Color.Named "blue") ~chunk:legit_chunk
           [ Helpers.rvalue_int 666 ] with
  | Ok () -> () (* replay of a legitimate target is accepted by design *)
  | Error e -> Alcotest.failf "legitimate target rejected: %s" e);
  (* ...but a chunk that is only ever direct-called is rejected *)
  (match Pinterp.inject_spawn pt ~color:(Color.Named "blue")
           ~chunk:"audit@blue#blue" [ Helpers.rvalue_int 1 ] with
  | Ok () -> Alcotest.fail "guard should reject a never-spawned chunk"
  | Error e ->
    Alcotest.(check bool) "guard message" true (Helpers.contains e "guard"))

let test_guard_off_executes_attack () =
  let plan = build Helpers.victim_src in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "set_vault" [ Helpers.rvalue_int 41 ]);
  Pinterp.set_spawn_guard pt false;
  (* without the guard, the forged spawn of the internal blue chunk runs
     with an attacker-chosen argument *)
  match Pinterp.inject_spawn pt ~color:(Color.Named "blue")
          ~chunk:"audit@blue#blue" [ Helpers.rvalue_int 665 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attack unexpectedly blocked: %s" e

(* --- authenticated pointers (§8: multi-color structures in hardened) --- *)

(* The struct mixes two colors; accesses go through indirections that the
   attacker (who controls unsafe memory) could redirect. *)
let multicolor_src =
  {|
within extern void* malloc(int n);
ignore extern void classify_i64(int* d, int v);
ignore extern void declassify_i64(int* d, int v);

struct rec_ {
  int color(blue) key;
  int color(red) val;
};

struct rec_* slot;
int rstatus;

entry void init() {
  slot = (struct rec_*) malloc(sizeof(struct rec_));
}

entry void set_key(int v) {
  int color(blue) k;
  classify_i64(&k, v);
  struct rec_* r = slot;
  r->key = k;
}

entry int get_key() {
  struct rec_* r = slot;
  declassify_i64(&rstatus, r->key);
  return rstatus;
}
|}

let test_hardened_rejects_without_auth () =
  let m = Helpers.compile multicolor_src in
  let infer = Infer.run ~mode:Mode.Hardened m in
  Alcotest.(check bool) "rejected without auth pointers" true
    (List.exists
       (fun d -> d.Diagnostic.kind = Diagnostic.Multicolor_struct)
       infer.Infer.diagnostics)

let test_hardened_accepts_with_auth () =
  let plan = build ~mode:Mode.Hardened ~auth:true multicolor_src in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "init" []);
  ignore (Pinterp.call_entry pt "set_key" [ Helpers.rvalue_int 77 ]);
  let v = (Pinterp.call_entry pt "get_key" []).Pinterp.value in
  Alcotest.(check int64) "roundtrip through authenticated indirection" 77L
    (Rvalue.to_int64 v)

let test_auth_slot_layout () =
  let m = Helpers.compile multicolor_src in
  let plain = Layout.create m Mode.Relaxed in
  let authd = Layout.create ~auth_pointers:true m Mode.Relaxed in
  Alcotest.(check int) "plain: two 8B slots" 16
    (Layout.struct_layout plain "rec_").Layout.ls_size;
  Alcotest.(check int) "auth: two 16B slots (ptr + MAC)" 32
    (Layout.struct_layout authd "rec_").Layout.ls_size

(* the attack: corrupt the blue indirection pointer so that the enclave's
   next access is redirected — authenticated pointers must fault *)
let corrupt_indirection pt =
  let heap = pt.Pinterp.exec.Exec.heap in
  (* read the struct base from the unsafe global, then overwrite the
     first slot (the blue key's indirection) with an attacker address *)
  let slot_global = Hashtbl.find pt.Pinterp.exec.Exec.globals "slot" in
  let base = Int64.to_int (Heap.load heap slot_global 8) in
  let attacker_target = Heap.alloc heap Heap.Unsafe 16 in
  Heap.store heap base 8 (Int64.of_int attacker_target);
  attacker_target

let test_auth_detects_tampering () =
  let plan = build ~mode:Mode.Hardened ~auth:true multicolor_src in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "init" []);
  ignore (Pinterp.call_entry pt "set_key" [ Helpers.rvalue_int 9 ]);
  ignore (corrupt_indirection pt);
  match Pinterp.call_entry pt "get_key" [] with
  | _ -> Alcotest.fail "tampered access should fault"
  | exception Pinterp.Error msg ->
    Alcotest.(check bool) "authentication failure reported" true
      (Helpers.contains msg "authentication")
  | exception Heap.Fault (_, msg) ->
    Alcotest.(check bool) "authentication failure reported" true
      (Helpers.contains msg "authentication")

let test_unauthenticated_tampering_redirects () =
  (* the same attack in relaxed mode without auth pointers silently follows
     the forged pointer: the enclave reads attacker-chosen memory *)
  let plan = build ~mode:Mode.Relaxed ~auth:false multicolor_src in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test plan in
  ignore (Pinterp.call_entry pt "init" []);
  ignore (Pinterp.call_entry pt "set_key" [ Helpers.rvalue_int 9 ]);
  let target = corrupt_indirection pt in
  let heap = pt.Pinterp.exec.Exec.heap in
  Heap.store heap target 8 31337L;
  let v = (Pinterp.call_entry pt "get_key" []).Pinterp.value in
  Alcotest.(check int64) "enclave read attacker memory" 31337L
    (Rvalue.to_int64 v)

(* --- Iago surface demonstration --- *)

let iago_src =
  {|
extern int read_untrusted();
int color(blue) gate;
entry void f() { gate = read_untrusted(); }
|}

let test_iago_modes () =
  (* hardened forbids consuming untrusted values inside the enclave;
     relaxed accepts them (the paper's documented tradeoff) *)
  let m = Helpers.compile iago_src in
  Alcotest.(check bool) "hardened rejects" true
    (not (Infer.ok (Infer.run ~mode:Mode.Hardened m)));
  let m2 = Helpers.compile iago_src in
  Alcotest.(check bool) "relaxed accepts" true
    (Infer.ok (Infer.run ~mode:Mode.Relaxed m2))

let suite =
  [
    Alcotest.test_case "valid spawn targets" `Quick test_valid_spawn_targets;
    Alcotest.test_case "guard blocks forged spawn" `Quick
      test_guard_blocks_forged_spawn;
    Alcotest.test_case "guard off executes attack" `Quick
      test_guard_off_executes_attack;
    Alcotest.test_case "hardened rejects multicolor w/o auth" `Quick
      test_hardened_rejects_without_auth;
    Alcotest.test_case "hardened accepts with auth" `Quick
      test_hardened_accepts_with_auth;
    Alcotest.test_case "auth slot layout" `Quick test_auth_slot_layout;
    Alcotest.test_case "auth detects tampering" `Quick test_auth_detects_tampering;
    Alcotest.test_case "unauthenticated tampering redirects" `Quick
      test_unauthenticated_tampering_redirects;
    Alcotest.test_case "iago mode split" `Quick test_iago_modes;
  ]
