(* Concrete interleaving explorer: executes a multi-threaded mini-C program
   under every schedule produced by shifting the spawned threads' start
   offsets, then lets the caller inspect memory. This is the ground-truth
   oracle of the Fig. 3 experiment: it exhibits the interleaving in which
   the sequentially-derived partition leaks the secret, while the secure
   type system rejected the program statically. *)

open Privagic_pir
module Sgx = Privagic_sgx
open Privagic_vm
module Sched = Privagic_runtime.Sched
module Vclock = Privagic_runtime.Vclock

type outcome = {
  offsets : float list;          (* start offset of each spawned thread *)
  globals : (string * int64) list; (* final values of scalar globals *)
  output : string;
}

(* Execute [entry] with spawned threads interleaved at instruction
   granularity; the k-th spawned thread starts at offset [List.nth offsets k]
   (missing offsets = spawn at the spawner's clock). *)
let run (m : Pmodule.t) ~(entry : string) ~(offsets : float list) : outcome =
  let machine =
    Sgx.Machine.create ~cost:Sgx.Cost.unit_steps Sgx.Config.machine_test
  in
  let heap = Heap.create () in
  let layout = Layout.create m Privagic_secure.Mode.Relaxed in
  let sched = Sched.create () in
  let spawn_count = ref 0 in
  let rec hooks : Exec.hooks =
    {
      Exec.h_call =
        (fun ex _i callee args ->
          match Pmodule.find_func ex.Exec.m callee with
          | Some f -> Exec.exec_func ex f args
          | None -> (
            match Externals.dispatch ex ~malloc_zone:Heap.Unsafe callee args with
            | Some r -> r
            | None -> raise (Exec.Trap ("unknown external @" ^ callee))))
      ;
      h_callind =
        (fun ex i fv args ->
          hooks.Exec.h_call ex i (Exec.resolve_func ex fv) args);
      h_spawn = (fun ex _i callee args -> spawn_thread ex callee args);
      h_pre_instr =
        (fun ex _ ->
          (* yield before every instruction so that the scheduler can
             interleave threads at instruction granularity; when this fiber
             resumes, another fiber may have swapped the shared clock — put
             ours back *)
          let mine = ex.Exec.clock in
          Sched.block (fun () -> true) (fun () -> Vclock.get mine);
          ex.Exec.clock <- mine)
      ;
      h_alloca_zone = (fun _ _ -> Heap.Unsafe);
    }
  and spawn_thread ex callee args =
    let k = !spawn_count in
    incr spawn_count;
    let at =
      match List.nth_opt offsets k with
      | Some o -> o
      | None -> (Vclock.get ex.Exec.clock)
    in
    let f = Pmodule.find_func_exn ex.Exec.m callee in
    ignore
      (Sched.spawn sched ~name:(lazy (Printf.sprintf "thread-%d:%s" k callee)) ~at
         (fun clock ->
           ex.Exec.clock <- clock;
           ignore (Exec.exec_func ex f args)))
  in
  let ex = Exec.create m heap layout machine hooks in
  Exec.init_globals ex (fun _ -> Heap.Unsafe);
  let f = Pmodule.find_func_exn m entry in
  ignore
    (Sched.spawn sched ~name:(lazy "main") ~at:0.0 (fun clock ->
         ex.Exec.clock <- clock;
         ignore (Exec.exec_func ex f [||])));
  ignore (Sched.run sched : Sched.outcome);
  let globals =
    List.filter_map
      (fun (g : Pmodule.global) ->
        match g.Pmodule.gty.Ty.desc with
        | Ty.I64 | Ty.I8 | Ty.I1 ->
          let addr = Hashtbl.find ex.Exec.globals g.Pmodule.gname in
          Some (g.Pmodule.gname, Heap.load heap addr (Exec.scalar_size g.Pmodule.gty))
        | _ -> None)
      (Pmodule.globals_sorted m)
  in
  { offsets; globals; output = Buffer.contents ex.Exec.out }

(* Explore schedules by sliding the first spawned thread's start offset and
   return every distinct outcome. *)
let explore (m : Pmodule.t) ~entry ~(max_offset : int) :
    outcome list =
  let outcomes = ref [] in
  for o = 0 to max_offset do
    (* the first thread starts immediately; the second slides across it *)
    let oc = run m ~entry ~offsets:[ 0.0; float_of_int o +. 0.5 ] in
    if
      not
        (List.exists
           (fun prev -> prev.globals = oc.globals && prev.output = oc.output)
           !outcomes)
    then outcomes := oc :: !outcomes
  done;
  List.rev !outcomes

(* Final value of a global in an outcome. *)
let global_value (oc : outcome) name =
  List.assoc_opt name oc.globals
