(* Shared helpers for the test suites. *)

open Privagic_pir
open Privagic_secure

let compile ?(file = "<test>") src = Privagic_minic.Driver.compile ~file src

(* Compile, run the secure analysis, and return the diagnostics. *)
let diagnostics ?(mode = Mode.Hardened) src =
  let m = compile src in
  (Infer.run ~mode m).Infer.diagnostics

let diagnostic_kinds ?mode src =
  List.map (fun d -> d.Diagnostic.kind) (diagnostics ?mode src)
  |> List.sort_uniq compare

let checks_ok ?mode src = diagnostics ?mode src = []

(* Compile + check + partition; fails the test on any diagnostic. *)
let plan_of ?(mode = Mode.Hardened) src =
  let m = compile src in
  let infer = Infer.run ~mode m in
  if not (Infer.ok infer) then
    Alcotest.failf "unexpected diagnostics: %s"
      (String.concat "; "
         (List.map Diagnostic.to_string infer.Infer.diagnostics));
  let plan = Privagic_partition.Plan.build ~mode infer in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    Alcotest.failf "unexpected plan diagnostics: %s"
      (String.concat "; "
         (List.map Diagnostic.to_string
            plan.Privagic_partition.Plan.diagnostics));
  plan

(* Plain interpreter over an unpartitioned module. *)
let interp ?(policy = Privagic_vm.Interp.unprotected) src =
  Privagic_vm.Interp.create ~config:Privagic_sgx.Config.machine_test
    (compile src) policy

let pinterp ?(mode = Mode.Hardened) src =
  Privagic_vm.Pinterp.create ~config:Privagic_sgx.Config.machine_test
    (plan_of ~mode src)

(* Run [entry] in the plain interpreter and return (value, output). *)
let run_plain ?policy src entry args =
  let it = interp ?policy src in
  let v = Privagic_vm.Interp.call it entry args in
  (v, Privagic_vm.Interp.output it)

let run_partitioned ?mode src entry args =
  let pt = pinterp ?mode src in
  let r = Privagic_vm.Pinterp.call_entry pt entry args in
  (r.Privagic_vm.Pinterp.value, Privagic_vm.Pinterp.output pt)

let int64_testable = Alcotest.int64

let rvalue_int v = Privagic_vm.Rvalue.Int (Int64.of_int v)

let to_int (v : Privagic_vm.Rvalue.t) = Privagic_vm.Rvalue.to_int v

(* Find a function in a module. *)
let func m name = Pmodule.find_func_exn m name

(* Substring test for diagnostics. *)
let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* A served store over a parallel pool. Serving runs on simulator shards;
   the server differential and replication convergence cells keep the
   paper's runtime behind the serving shell as a fidelity check. The server never tears its stores
   down, so the caller shuts the pool down after the server drained. *)
let store_of_parallel p =
  let module Par = Privagic_parallel.Parallel in
  let module Heap = Privagic_vm.Heap in
  let heap = (Par.exec p).Privagic_vm.Exec.heap in
  {
    Privagic_server.Server.st_name = "parallel";
    st_call =
      (fun name args ->
        match Par.call_entry p name args with
        | r -> Ok r.Par.value
        | exception Par.Error m -> Error m);
    st_alloc = (fun n -> Heap.alloc heap Heap.Unsafe n);
    st_write =
      (fun addr s ->
        String.iteri
          (fun i c -> Heap.store heap (addr + i) 1 (Int64.of_int (Char.code c)))
          s);
    st_read =
      (fun addr n ->
        String.init n (fun i ->
            Char.chr (Int64.to_int (Heap.load heap (addr + i) 1) land 0xff)));
    st_register_obs = Par.register_obs p;
  }
