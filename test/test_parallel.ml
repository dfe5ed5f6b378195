(* Differential tests: the real-parallel backend (OCaml 5 domains,
   lock-free queues, wall-clock time) against the virtual-time oracle.
   The same program replays the same operation sequence on both backends;
   per-call return values and the final integer-typed globals — the
   heap-visible declassified state — must agree call for call.

   Pointer-valued observations compare by constructor only: absolute
   simulated addresses need not match across backends (allocation order
   inside one activation is only partially ordered). *)

open Privagic_pir
open Privagic_secure
open Privagic_vm
module P = Privagic_workloads.Programs
module Parallel = Privagic_parallel.Parallel
module Pmodule = Privagic_pir.Pmodule
module Ty = Privagic_pir.Ty

(* an operation's argument: an int literal, the shared value buffer, or
   the scratch output buffer *)
type arg = I of int | V | O

let vsize = 48

let obs = function
  | Rvalue.Int n -> Int64.to_string n
  | Rvalue.Ptr p -> if p = 0 then "null" else "ptr"
  | Rvalue.Flt f -> Printf.sprintf "%h" f
  | Rvalue.Unit -> "unit"

(* the integer-typed globals of a module, in a fixed order *)
let int_globals m =
  List.filter_map
    (fun (g : Pmodule.global) ->
      match g.Pmodule.gty.Ty.desc with
      | Ty.I64 -> Some g.Pmodule.gname
      | _ -> None)
    (Pmodule.globals_sorted m)

let read_globals (ex : Exec.t) names =
  List.map
    (fun n ->
      (n, Heap.load ex.Exec.heap (Hashtbl.find ex.Exec.globals n) 8))
    names

let payload = String.init vsize (fun i -> Char.chr (65 + (i mod 26)))

let buffers heap =
  let vbuf = Heap.alloc heap Heap.Unsafe vsize in
  let obuf = Heap.alloc heap Heap.Unsafe vsize in
  String.iteri
    (fun i c -> Heap.store heap (vbuf + i) 1 (Int64.of_int (Char.code c)))
    payload;
  (vbuf, obuf)

let argv ~vbuf ~obuf args =
  List.map
    (function
      | I n -> Rvalue.Int (Int64.of_int n)
      | V -> Rvalue.Ptr vbuf
      | O -> Rvalue.Ptr obuf)
    args

(* one run on the oracle: per-call observations + final int globals *)
let run_sim ?engine plan (ops : (string * arg list) list) =
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test ?engine plan in
  let vbuf, obuf = buffers pt.Pinterp.exec.Exec.heap in
  let vals =
    List.map
      (fun (entry, args) ->
        (Pinterp.call_entry pt entry (argv ~vbuf ~obuf args)).Pinterp.value
        |> obs)
      ops
  in
  (vals, read_globals pt.Pinterp.exec (int_globals plan.Privagic_partition.Plan.pmodule))

(* the same run on domains *)
let run_par ?(lanes = 2) ?engine plan (ops : (string * arg list) list) =
  let p = Parallel.create ~lanes ?engine plan in
  let vbuf, obuf = buffers (Parallel.exec p).Exec.heap in
  let vals =
    List.map
      (fun (entry, args) ->
        (Parallel.call_entry p entry (argv ~vbuf ~obuf args)).Parallel.value
        |> obs)
      ops
  in
  let gs =
    read_globals (Parallel.exec p)
      (int_globals plan.Privagic_partition.Plan.pmodule)
  in
  let domains = Parallel.domain_count p in
  let quiet = Parallel.shutdown p in
  Alcotest.(check bool) "pool quiesced and joined" true quiet;
  (vals, gs, domains)

(* the full engine matrix: the virtual-time oracle and the domains
   backend each run under both executors; all four runs must agree on
   per-call observations and on the final integer globals *)
let check_equiv ?lanes ?(min_domains = 2) ~mode src ops =
  let plan () = Helpers.plan_of ~mode src in
  let sim_vals, sim_globals = run_sim ~engine:Exec.Walk (plan ()) ops in
  let simi_vals, simi_globals = run_sim ~engine:Exec.Image (plan ()) ops in
  Alcotest.(check (list string)) "sim: walk vs image values" sim_vals
    simi_vals;
  Alcotest.(check (list (pair string int64)))
    "sim: walk vs image globals" sim_globals simi_globals;
  List.iter
    (fun engine ->
      let par_vals, par_globals, domains =
        run_par ?lanes ~engine (plan ()) ops
      in
      let tag = Exec.engine_name engine in
      Alcotest.(check (list string))
        (tag ^ ": per-call return values")
        sim_vals par_vals;
      Alcotest.(check (list (pair string int64)))
        (tag ^ ": final integer globals")
        sim_globals par_globals;
      Alcotest.(check bool)
        (Printf.sprintf "%s: ran on >= %d domains (got %d)" tag min_domains
           domains)
        true
        (domains >= min_domains))
    [ Exec.Walk; Exec.Image ]

(* deterministic mixed workload over a keyspace twice the loaded range, so
   gets also miss and puts also insert *)
let kv_ops ~records ~ops (put, get) =
  List.init records (fun k -> (put, [ I k; V ]))
  @ List.init ops (fun i ->
        if i mod 3 = 0 then (put, [ I (i * 7 mod (2 * records)); V ])
        else (get, [ I (i * 13 mod (2 * records)); O ]))

let test_hashmap () =
  check_equiv ~mode:Mode.Hardened
    (P.hashmap ~nbuckets:16 ~vsize `Colored)
    (kv_ops ~records:24 ~ops:48 ("hm_put", "hm_get")
    @ [ ("hm_size", []) ])

let test_linked_list () =
  check_equiv ~mode:Mode.Hardened
    (P.linked_list ~vsize `Colored)
    (kv_ops ~records:12 ~ops:24 ("ll_put", "ll_get"))

let test_rbtree () =
  check_equiv ~mode:Mode.Hardened
    (P.rbtree ~vsize `Colored)
    (kv_ops ~records:24 ~ops:48 ("tm_put", "tm_get"))

let test_hashmap_two_color () =
  (* two enclaves + U: three partitions, so ≥3 domains *)
  check_equiv ~mode:Mode.Relaxed ~min_domains:3
    (P.hashmap_two_color ~nbuckets:16 ~vsize `Colored)
    (kv_ops ~records:24 ~ops:48 ("h2_put", "h2_get"))

let test_memcached () =
  (* eviction at capacity, the crawler thread ([spawn]!), statistics *)
  check_equiv ~mode:Mode.Hardened
    (P.memcached ~nbuckets:16 ~vsize `Colored)
    ([ ("mc_init", [ I 8 ]) ]
    @ List.init 12 (fun k -> ("mc_set", [ I k; V ]))
    @ List.init 16 (fun i -> ("mc_get", [ I (i * 5 mod 14); O ]))
    @ [ ("mc_delete", [ I 9 ]); ("mc_touch", [ I 10 ]);
        ("mc_set_capacity", [ I 3 ]); ("mc_maintain", []);
        ("mc_count", []); ("mc_stat", [ I 0 ]); ("mc_stat", [ I 1 ]);
        ("mc_stat", [ I 3 ]) ])

let test_fig1 () =
  (* the multi-color account of Fig. 1: [create] returns a fresh struct
     whose fields live in two enclaves *)
  check_equiv ~mode:Mode.Relaxed P.fig1
    [ ("create", [ V ]); ("create", [ V ]) ]

let test_replicated_loop () =
  (* an F-conditioned loop writing both blue and unsafe state: the loop
     is replicated into every chunk, synchronized at §7.3.3 barriers *)
  let src =
    {|
ignore extern void declassify_i64(int* d, int v);
int color(blue) b;
int y = 0;
int rstatus;
entry void f() {
  int i = 0;
  while (i < 4) {
    b = b + 3;
    y = y + 2;
    i = i + 1;
  }
}
entry int readb() {
  declassify_i64(&rstatus, b);
  return rstatus;
}
|}
  in
  check_equiv ~mode:Mode.Hardened src
    [ ("f", []); ("readb", []); ("f", []); ("readb", []) ]

let test_fig6 () =
  (* three partitions; also the one program where we compare stdout *)
  let plan () = Helpers.plan_of ~mode:Mode.Relaxed P.fig6 in
  let pt = Pinterp.create ~config:Privagic_sgx.Config.machine_test (plan ()) in
  let sim = Pinterp.call_entry pt "main" [] in
  let p = Parallel.create (plan ()) in
  let par = Parallel.call_entry p "main" [] in
  Alcotest.(check string)
    "return value" (obs sim.Pinterp.value) (obs par.Parallel.value);
  Alcotest.(check string) "output" (Pinterp.output pt) (Parallel.output p);
  Alcotest.(check bool) "three partitions -> >= 3 domains" true
    (Parallel.domain_count p >= 3);
  Alcotest.(check bool) "clean shutdown" true (Parallel.shutdown p)

let test_spawned_thread () =
  (* a background thread crossing into the blue enclave: quiescence must
     cover it before the entry call returns *)
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
  check_equiv ~mode:Mode.Hardened src
    [ ("start", [ I 77 ]); ("read_cell", []);
      ("start", [ I 1234 ]); ("read_cell", []) ]

let test_spawn_guard () =
  (* the §8 forged-spawn attack against the real pool: the guard rejects
     at dequeue, and a legitimate chunk is still rejected when aimed at
     the wrong partition *)
  let plan = Helpers.plan_of ~mode:Mode.Relaxed P.fig6 in
  let p = Parallel.create plan in
  ignore (Parallel.call_entry p "main" []);
  let victim =
    (* any enclave chunk of the plan *)
    let found = ref None in
    Hashtbl.iter
      (fun _ (pf : Privagic_partition.Plan.pfunc) ->
        List.iter
          (fun (ci : Privagic_partition.Plan.chunk_info) ->
            if
              !found = None
              && Color.is_enclave ci.Privagic_partition.Plan.ci_color
            then
              found :=
                Some
                  ( ci.Privagic_partition.Plan.ci_func.Privagic_pir.Func.name,
                    ci.Privagic_partition.Plan.ci_color ))
          pf.Privagic_partition.Plan.pf_chunks)
      plan.Privagic_partition.Plan.pfuncs;
    Option.get !found
  in
  let chunk, color = victim in
  (match Parallel.inject_spawn p ~color ~chunk [] with
  | Result.Error msg ->
    Alcotest.(check bool) "guard names the rejection" true
      (Helpers.contains msg "spawn guard")
  | Result.Ok () -> Alcotest.fail "forged spawn accepted");
  Parallel.set_spawn_guard p false;
  ignore (Parallel.shutdown p)

let test_timeout_is_an_error () =
  (* the fail-fast path: an impossible deadline must surface as Error
     mentioning the timeout, not hang the suite *)
  let plan = Helpers.plan_of ~mode:Mode.Relaxed P.fig6 in
  let p = Parallel.create plan in
  (match Parallel.call_entry p ~timeout_s:0.0 "main" [] with
  | _ -> Alcotest.fail "expected a timeout"
  | exception Parallel.Error msg ->
    Alcotest.(check bool) "mentions the timeout" true
      (Helpers.contains msg "timed out"));
  ignore (Parallel.shutdown ~timeout_s:30.0 p)

(* Runtime bookkeeping is bounded by in-flight work: after every request
   on an idle VM, no sequence-agreement entry and no activation frame is
   left, on both backends and both engines. The lookup call site of
   memcached's get and set is in both the U and the blue chunk, so every
   request goes through a rendezvous. [mc_bad 0] traps in its blue chunk before a
   call site it shares with the U chunk, so the U side arrives at a
   rendezvous nobody else will take. *)
let trapping_entry =
  {|
int twice(int x) { return x + x; }
entry int mc_bad(int d) {
  int color(blue) bd;
  classify_i64(&bd, d);
  int color(blue) q = 7 / bd;
  int r = twice(3);
  stat_sets = q + r;
  return r;
}
|}

let test_bounded_state () =
  let plan () =
    Helpers.plan_of ~mode:Mode.Hardened
      (P.memcached ~nbuckets:16 ~vsize `Colored ^ trapping_entry)
  in
  let n = 2000 in
  let trap_at = n / 2 in
  let ops =
    List.init n (fun i ->
        if i = trap_at then ("mc_bad", [ I 0 ])
        else if i mod 4 = 0 then ("mc_set", [ I (i * 7 mod 96); V ])
        else ("mc_get", [ I (i * 13 mod 96); O ]))
  in
  (* [call] runs one request and says whether it failed; [held] is the
     state left behind, which must be zero after every request *)
  let drive tag ~call ~held =
    if call "mc_init" [ I 64 ] then Alcotest.failf "%s: mc_init failed" tag;
    List.iteri
      (fun i (entry, args) ->
        let failed = call entry args in
        if failed <> (i = trap_at) then
          Alcotest.failf "%s: request %d (%s) failed=%b" tag i entry failed;
        match held () with
        | 0 -> ()
        | k -> Alcotest.failf "%s: %d entries held after request %d" tag k i)
      ops
  in
  List.iter
    (fun engine ->
      let tag = Exec.engine_name engine in
      let pt =
        Pinterp.create ~config:Privagic_sgx.Config.machine_test ~engine
          (plan ())
      in
      let vbuf, obuf = buffers pt.Pinterp.exec.Exec.heap in
      drive ("sim/" ^ tag)
        ~call:(fun entry args ->
          match Pinterp.call_entry pt entry (argv ~vbuf ~obuf args) with
          | _ -> false
          | exception Pinterp.Error _ -> true)
        ~held:(fun () -> Dispatch.pending pt.Pinterp.disp);
      let p = Parallel.create ~engine (plan ()) in
      let vbuf, obuf = buffers (Parallel.exec p).Exec.heap in
      drive ("parallel/" ^ tag)
        ~call:(fun entry args ->
          match Parallel.call_entry p entry (argv ~vbuf ~obuf args) with
          | _ -> false
          | exception Parallel.Error _ -> true)
        ~held:(fun () -> Parallel.agreement_entries p + Parallel.held_frames p);
      Alcotest.(check bool) (tag ^ ": pool quiesced") true (Parallel.shutdown p))
    [ Exec.Walk; Exec.Image ]

let suite =
  [
    Alcotest.test_case "hashmap sim=parallel" `Quick test_hashmap;
    Alcotest.test_case "linked-list sim=parallel" `Quick test_linked_list;
    Alcotest.test_case "rbtree sim=parallel" `Quick test_rbtree;
    Alcotest.test_case "two-color hashmap sim=parallel" `Quick
      test_hashmap_two_color;
    Alcotest.test_case "memcached sim=parallel" `Quick test_memcached;
    Alcotest.test_case "fig1 sim=parallel" `Quick test_fig1;
    Alcotest.test_case "replicated loop sim=parallel" `Quick
      test_replicated_loop;
    Alcotest.test_case "fig6 sim=parallel (+output)" `Quick test_fig6;
    Alcotest.test_case "spawned thread sim=parallel" `Quick
      test_spawned_thread;
    Alcotest.test_case "forged spawn rejected at dequeue" `Quick
      test_spawn_guard;
    Alcotest.test_case "timeout surfaces as error" `Quick
      test_timeout_is_an_error;
    Alcotest.test_case "runtime state bounded by in-flight work" `Quick
      test_bounded_state;
  ]
