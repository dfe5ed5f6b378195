(* The benchmark harness.

   Part 1 — Bechamel microbenchmarks, one Test.make per paper artifact:
   the host-side cost of the operation underlying each table/figure
   (compile+check, a partitioned request, per-structure operations, the
   lock-free queue, the cache model).

   Part 2 — the experiment reports: every table and figure of §9 is
   regenerated by the Privagic_harness modules in simulated cycles
   (deterministic virtual time; see EXPERIMENTS.md for the comparison with
   the paper's numbers).

     dune exec bench/main.exe                  # everything (a few minutes)
     dune exec bench/main.exe -- --quick       # scaled-down sizes
     dune exec bench/main.exe -- fig8 fig9     # selected experiments *)

open Bechamel
open Toolkit
module P = Privagic_workloads.Programs
module System = Privagic_baselines.System
module Kv = Privagic_harness.Kv
open Privagic_secure
open Privagic_vm

(* --- fixtures shared by the micro benchmarks --- *)

let memcached_src = P.memcached ~nbuckets:1024 ~vsize:1024 `Colored

let make_loaded family kind ~records =
  let src = Kv.source family (System.variant kind) ~nbuckets:1024 ~vsize:1024 in
  let sys = System.create kind src in
  let put, get = Kv.entries family in
  let vbuf = System.alloc_buffer sys 1024 in
  let obuf = System.alloc_buffer sys 1024 in
  (if family = Kv.Memcached then
     ignore (sys.System.call "mc_init" [ Rvalue.Int (Int64.of_int (records * 2)) ]));
  for k = 0 to records - 1 do
    ignore (sys.System.call put [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
  done;
  let counter = ref 0 in
  fun () ->
    incr counter;
    ignore
      (sys.System.call get
         [ Rvalue.Int (Int64.of_int (!counter * 31 mod records)); Rvalue.Ptr obuf ])

let micro_tests () =
  let checker =
    Test.make ~name:"table4: compile+check memcached"
      (Staged.stage (fun () ->
           let m = Privagic_minic.Driver.compile ~file:"mc.mc" memcached_src in
           ignore (Infer.run ~mode:Mode.Hardened m)))
  in
  let fig8_request =
    let run = make_loaded Kv.Memcached (System.Privagic Mode.Hardened) ~records:512 in
    Test.make ~name:"fig8: one partitioned memcached request" (Staged.stage run)
  in
  let fig9_hash =
    let run = make_loaded Kv.Hashmap (System.Privagic Mode.Hardened) ~records:512 in
    Test.make ~name:"fig9: one partitioned hashmap get" (Staged.stage run)
  in
  let fig9_tree =
    let run = make_loaded Kv.Rbtree (System.Privagic Mode.Hardened) ~records:512 in
    Test.make ~name:"fig9: one partitioned treemap get" (Staged.stage run)
  in
  let fig9_list =
    let run =
      make_loaded Kv.Linked_list (System.Privagic Mode.Hardened) ~records:128
    in
    Test.make ~name:"fig9: one partitioned linked-list get" (Staged.stage run)
  in
  let fig10_two =
    let run = make_loaded Kv.Hashmap2 (System.Privagic Mode.Relaxed) ~records:512 in
    Test.make ~name:"fig10: one two-color hashmap get" (Staged.stage run)
  in
  let queue =
    let q = Privagic_runtime.Msqueue.create () in
    Test.make ~name:"runtime: lock-free queue push+pop"
      (Staged.stage (fun () ->
           Privagic_runtime.Msqueue.push q 1;
           ignore (Privagic_runtime.Msqueue.pop q)))
  in
  let cache =
    let c =
      Privagic_sgx.Cache.create ~size_bytes:(32 * 1024) ~line_bytes:64 ~assoc:8
    in
    let addr = ref 0 in
    Test.make ~name:"sgx: cache model access"
      (Staged.stage (fun () ->
           addr := (!addr + 4096) land 0xfffff;
           ignore (Privagic_sgx.Cache.access c !addr 8)))
  in
  [ checker; fig8_request; fig9_hash; fig9_tree; fig9_list; fig10_two; queue;
    cache ]

let run_micro () =
  Format.printf "== Bechamel microbenchmarks (host-side cost per call) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "  %-45s %12.0f ns/run@." name est
          | _ -> Format.printf "  %-45s (no estimate)@." name)
        results)
    (micro_tests ());
  Format.printf "@."

(* --- telemetry benchmark: a profiled memcached run -> BENCH_telemetry.json

   Machine-readable companion to the experiment reports: makespan,
   critical-path breakdown, and queue-latency percentiles of a
   memcached-style YCSB-B run under the partitioned system. *)

module Tel = Privagic_telemetry

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let run_telemetry_bench ~quick () =
  Format.printf "== telemetry: profiled memcached run ==@.";
  let records = if quick then 256 else 1024 in
  let operations = if quick then 300 else 2000 in
  let r = Tel.Recorder.create () in
  let res =
    Kv.run ~telemetry:r Kv.Memcached (System.Privagic Mode.Hardened)
      ~record_count:records ~operations ()
  in
  let evs = Tel.Recorder.events r in
  let summary = Tel.Summary.of_events ~dropped:(Tel.Recorder.dropped r) evs in
  (* the load phase was cleared from the recorder: analyze the window the
     retained events cover so the path is attributed to the measured ops *)
  let since =
    Array.fold_left
      (fun acc (e : Tel.Event.t) -> Float.min acc e.Tel.Event.at)
      infinity evs
  in
  let since = if since = infinity then 0.0 else since in
  let cp = Tel.Critical_path.analyze ~since evs in
  let ql = Tel.Metrics.histogram summary.Tel.Summary.metrics
      "queue latency (cycles)" in
  let b = Buffer.create 4096 in
  let bp fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bp "{\n";
  bp "  \"benchmark\": \"memcached-ycsb-b\",\n";
  bp "  \"system\": %S,\n" res.Kv.system;
  bp "  \"records\": %d,\n" res.Kv.record_count;
  bp "  \"operations\": %d,\n" res.Kv.operations;
  bp "  \"throughput_kops\": %.3f,\n" res.Kv.throughput_kops;
  bp "  \"mean_latency_us\": %.3f,\n" res.Kv.mean_latency_us;
  bp "  \"events\": %d,\n" summary.Tel.Summary.event_count;
  bp "  \"events_dropped\": %d,\n" summary.Tel.Summary.dropped;
  bp "  \"makespan_cycles\": %.0f,\n" summary.Tel.Summary.makespan;
  bp "  \"window_start_cycles\": %.0f,\n" since;
  bp "  \"critical_path\": {\n";
  bp "    \"total_cycles\": %.0f,\n" (Tel.Critical_path.total cp);
  bp "    \"complete\": %b,\n" cp.Tel.Critical_path.cp_complete;
  bp "    \"by_worker\": [";
  List.iteri
    (fun i (k, d) ->
      bp "%s\n      { \"worker\": \"%s\", \"cycles\": %.0f }"
        (if i = 0 then "" else ",")
        (json_escape (Tel.Recorder.track_name r k))
        d)
    cp.Tel.Critical_path.cp_by_track;
  bp "\n    ],\n";
  bp "    \"by_chunk\": [";
  List.iteri
    (fun i (name, d) ->
      bp "%s\n      { \"chunk\": \"%s\", \"cycles\": %.0f }"
        (if i = 0 then "" else ",")
        (json_escape name) d)
    cp.Tel.Critical_path.cp_by_chunk;
  bp "\n    ]\n";
  bp "  },\n";
  bp "  \"queue_latency_cycles\": {\n";
  bp "    \"n\": %d,\n" ql.Tel.Metrics.h_count;
  bp "    \"mean\": %.1f,\n" (Tel.Metrics.mean ql);
  bp "    \"p50\": %.1f,\n" (Tel.Metrics.percentile ql 0.50);
  bp "    \"p90\": %.1f,\n" (Tel.Metrics.percentile ql 0.90);
  bp "    \"p99\": %.1f,\n" (Tel.Metrics.percentile ql 0.99);
  bp "    \"max\": %.1f\n"
    (if ql.Tel.Metrics.h_count = 0 then 0.0 else ql.Tel.Metrics.h_max);
  bp "  }\n";
  bp "}\n";
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf
    "  makespan %.0f cycles, critical path %.0f cycles over %d workers -> \
     BENCH_telemetry.json@.@."
    summary.Tel.Summary.makespan (Tel.Critical_path.total cp)
    (List.length cp.Tel.Critical_path.cp_by_track)

(* --- parallel-backend benchmark: real domains -> BENCH_parallel.json

   Wall-clock throughput of the same YCSB-B protocol on the real-parallel
   backend (OCaml 5 domains, lock-free queues). Not comparable to the
   simulated-cycle numbers — the interpreter overhead dominates — but it
   proves the partitioned programs run end-to-end on actual parallel
   hardware and gives the wall-clock baseline to optimize against. *)

let run_parallel_bench ~quick () =
  Format.printf "== parallel backend: domains, wall-clock ==@.";
  let records = if quick then 128 else 512 in
  let operations = if quick then 200 else 1000 in
  let cases =
    [ (Kv.Memcached, "memcached"); (Kv.Hashmap, "hashmap");
      (Kv.Hashmap2, "hashmap-2color") ]
  in
  (* each family twice: the closed loop (drivers=1, the E14 shape where
     the single blocking caller starves the lanes) and the multi-inflight
     open driver mode (drivers=4) that keeps the lanes fed *)
  let results =
    List.concat_map
      (fun (family, label) ->
        List.map
          (fun drivers ->
            let r =
              Kv.run_parallel ~nbuckets:256 ~vsize:256 ~drivers family
                ~record_count:records ~operations ()
            in
            Format.printf
              "  %-16s %8.1f kops/s wall  (%d ops, %d drivers, %d domains, \
               %.0f steps/s, p_found %.2f)@."
              label r.Kv.pr_throughput_kops r.Kv.pr_operations r.Kv.pr_drivers
              r.Kv.pr_domains r.Kv.pr_steps_per_sec r.Kv.pr_p_found;
            (label, r))
          [ 1; 4 ])
      cases
  in
  let b = Buffer.create 1024 in
  let bp fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bp "{\n";
  bp "  \"benchmark\": \"parallel-backend-ycsb-b\",\n";
  bp "  \"backend\": \"domains\",\n";
  bp "  \"workloads\": [";
  List.iteri
    (fun i (label, (r : Kv.parallel_result)) ->
      bp "%s\n    {\n" (if i = 0 then "" else ",");
      bp "      \"family\": %S,\n" label;
      bp "      \"records\": %d,\n" r.Kv.pr_record_count;
      bp "      \"operations\": %d,\n" r.Kv.pr_operations;
      bp "      \"drivers\": %d,\n" r.Kv.pr_drivers;
      bp "      \"domains\": %d,\n" r.Kv.pr_domains;
      bp "      \"wall_seconds\": %.6f,\n" r.Kv.pr_wall_seconds;
      bp "      \"throughput_kops\": %.3f,\n" r.Kv.pr_throughput_kops;
      bp "      \"steps\": %d,\n" r.Kv.pr_steps;
      bp "      \"steps_per_sec\": %.1f,\n" r.Kv.pr_steps_per_sec;
      bp "      \"p_found\": %.4f,\n" r.Kv.pr_p_found;
      bp "      \"stalls\": [";
      List.iteri
        (fun j (bd : Privagic_obs.Lane.breakdown) ->
          bp "%s\n        { \"lane\": %S, \"wall_us\": %d, \
             \"dominant_stall\": %S, \"coverage\": %.4f"
            (if j = 0 then "" else ",")
            bd.Privagic_obs.Lane.b_label bd.Privagic_obs.Lane.b_wall_us
            (Privagic_obs.Phase.name
               (Privagic_obs.Lane.dominant_stall bd))
            (Privagic_obs.Lane.coverage bd);
          List.iter
            (fun ph ->
              bp ", \"%s_us\": %d" (Privagic_obs.Phase.name ph)
                bd.Privagic_obs.Lane.b_phase_us.(Privagic_obs.Phase.index ph))
            Privagic_obs.Phase.all;
          bp " }")
        r.Kv.pr_stalls;
      bp "\n      ]\n";
      bp "    }")
    results;
  bp "\n  ]\n";
  bp "}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "  -> BENCH_parallel.json@.@."

(* --- serving-layer benchmark: TCP loopback -> BENCH_server.json

   The full request path of E11/E16: loadgen clients -> sockets -> shard
   event loops -> batched entry execution. Two measurements:
   - a closed-loop headline on the sharded path (the perf-trajectory
     number existing readers track), and
   - an open-loop connections x shards sweep: offered rate stepped past
     saturation so the knee (achieved < target, latency blow-up) is
     recorded, per the coordinated-omission-free convention. *)

module Server = Privagic_server.Server
module Loadgen = Privagic_loadgen.Loadgen

let server_plan () =
  let src =
    Privagic_workloads.Programs.memcached ~nbuckets:256 ~vsize:32 `Colored
  in
  let m = Privagic_minic.Driver.compile ~file:"memcached.mc" src in
  let infer = Privagic_secure.Infer.run ~mode:Privagic_secure.Mode.Hardened m in
  Privagic_partition.Plan.build ~mode:Privagic_secure.Mode.Hardened infer

let start_server plan ~shards ~records =
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let stores =
    Array.init shards (fun _ ->
        let store = Server.store_of_pinterp (Privagic_vm.Pinterp.create plan) in
        (match
           store.Server.st_call "mc_init"
             [ Privagic_vm.Rvalue.Int (Int64.of_int (records * 2)) ]
         with
        | Ok _ -> ()
        | Error msg -> failwith ("mc_init: " ^ msg));
        store)
  in
  Server.start
    { Server.default_config with Server.port = 0; shards; max_batch = 32 }
    bnd stores

type sweep_point = {
  sp_shards : int;
  sp_clients : int;
  sp_rate : float;
  sp_r : Loadgen.result;
}

let run_server_bench ~quick () =
  Format.printf "== serving layer: TCP loopback ==@.";
  let records = if quick then 256 else 1024 in
  let operations = if quick then 5_000 else 40_000 in
  let plan = server_plan () in
  (* headline: closed loop, pipelined connections, sharded sim backend *)
  let shards = 2 in
  let srv = start_server plan ~shards ~records in
  let cfg =
    { Loadgen.default_config with
      Loadgen.port = Server.port srv;
      clients = 8;
      depth = 2;
      ops = operations;
      record_count = records;
    }
  in
  let r = Loadgen.run cfg in
  let l = r.Loadgen.r_latency in
  Format.printf
    "  memcached/TCP    %8.2f kops/s wall  (%d shards, p50 %.0f us, p95 %.0f \
     us, p99 %.0f us, %d ops)@."
    r.Loadgen.r_throughput_kops shards l.Privagic_telemetry.Metrics.p50
    l.Privagic_telemetry.Metrics.p95 l.Privagic_telemetry.Metrics.p99
    r.Loadgen.r_ops_ok;
  Server.drain srv;
  (* open-loop sweep: connections x shards, offered rate stepped past
     saturation; a fresh server per shard count so each point measures
     one topology *)
  let sweep = ref [] in
  let sweep_ops = if quick then 4_000 else 20_000 in
  List.iter
    (fun sw_shards ->
      let ssrv = start_server plan ~shards:sw_shards ~records in
      List.iter
        (fun clients ->
          List.iter
            (fun rate ->
              let scfg =
                { cfg with
                  Loadgen.port = Server.port ssrv;
                  clients;
                  ops = sweep_ops;
                  rate;
                  depth = 1;
                  preload = false;
                }
              in
              let sr = Loadgen.run scfg in
              let sl = sr.Loadgen.r_latency in
              Format.printf
                "  sweep s=%d c=%-3d target %7.0f ops/s  achieved %7.0f  p50 \
                 %.0f us  p99 %.0f us@."
                sw_shards clients rate
                (if sr.Loadgen.r_wall_seconds > 0.0 then
                   float_of_int sr.Loadgen.r_ops_ok
                   /. sr.Loadgen.r_wall_seconds
                 else 0.0)
                sl.Privagic_telemetry.Metrics.p50
                sl.Privagic_telemetry.Metrics.p99;
              sweep :=
                { sp_shards = sw_shards; sp_clients = clients; sp_rate = rate;
                  sp_r = sr }
                :: !sweep)
            (if quick then [ 5_000.; 20_000.; 80_000. ]
             else [ 5_000.; 10_000.; 20_000.; 40_000.; 80_000.; 160_000. ]))
        (if quick then [ 8 ] else [ 4; 16 ]);
      Server.drain ssrv)
    (if quick then [ 2 ] else [ 2; 4 ]);
  (* one json record: the headline cell in the historical shape, plus
     the sweep appended *)
  let b = Buffer.create 4096 in
  let bp fmt = Printf.bprintf b fmt in
  let pct (x : Privagic_telemetry.Metrics.pctiles) =
    Printf.sprintf
      "{ \"n\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": \
       %.1f, \"p999\": %.1f, \"max\": %.1f }"
      x.Privagic_telemetry.Metrics.n x.Privagic_telemetry.Metrics.p_mean
      x.Privagic_telemetry.Metrics.p50 x.Privagic_telemetry.Metrics.p95
      x.Privagic_telemetry.Metrics.p99 x.Privagic_telemetry.Metrics.p999
      x.Privagic_telemetry.Metrics.p_max
  in
  bp "{\n";
  bp "  \"bench\": \"server\",\n";
  bp "  \"backend\": \"sim\", \"shards\": %d,\n" shards;
  bp "  \"clients\": %d, \"ops\": %d, \"rate\": 0, \"depth\": %d,\n"
    cfg.Loadgen.clients operations cfg.Loadgen.depth;
  bp "  \"record_count\": %d, \"vsize\": %d,\n" records cfg.Loadgen.vsize;
  bp "  \"ops_ok\": %d, \"busy\": %d, \"errors\": %d,\n" r.Loadgen.r_ops_ok
    r.Loadgen.r_busy r.Loadgen.r_errors;
  bp "  \"wall_seconds\": %.6f,\n" r.Loadgen.r_wall_seconds;
  bp "  \"throughput_kops\": %.3f,\n" r.Loadgen.r_throughput_kops;
  bp "  \"latency_us\": %s,\n" (pct r.Loadgen.r_latency);
  bp "  \"open_loop_sweep\": [\n";
  let pts = List.rev !sweep in
  List.iteri
    (fun i p ->
      let achieved =
        if p.sp_r.Loadgen.r_wall_seconds > 0.0 then
          float_of_int p.sp_r.Loadgen.r_ops_ok /. p.sp_r.Loadgen.r_wall_seconds
        else 0.0
      in
      bp
        "    { \"shards\": %d, \"clients\": %d, \"target_rate_ops\": %.0f, \
         \"achieved_rate_ops\": %.1f, \"latency_us\": %s }%s\n"
        p.sp_shards p.sp_clients p.sp_rate achieved (pct p.sp_r.Loadgen.r_latency)
        (if i = List.length pts - 1 then "" else ","))
    pts;
  bp "  ]\n";
  bp "}\n";
  let oc = open_out "BENCH_server.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "  -> BENCH_server.json@.@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let names =
    List.filter
      (fun a -> a <> "--quick" && a <> "--no-micro" && a <> "--no-telemetry")
      args
  in
  (* "parallel", "server" and "vm" are bench-level targets, not the paper's
     experiments: run them here and keep them out of the experiment names *)
  let parallel_requested = List.mem "parallel" names in
  let server_requested = List.mem "server" names in
  let vm_requested = List.mem "vm" names in
  let names =
    List.filter (fun a -> a <> "parallel" && a <> "server" && a <> "vm") names
  in
  let t0 = Unix.gettimeofday () in
  if parallel_requested then run_parallel_bench ~quick ();
  if server_requested then run_server_bench ~quick ();
  if vm_requested then ignore (Privagic_harness.Vmbench.run ~quick ());
  (* `bench parallel`/`bench server`/`bench vm` alone run only those
     targets; combined with other names (or none beyond flags) the usual
     pipeline still runs *)
  if
    not
      ((parallel_requested || server_requested || vm_requested) && names = [])
  then begin
    if not (List.mem "--no-micro" args) then run_micro ();
    if not (List.mem "--no-telemetry" args) then run_telemetry_bench ~quick ();
    Privagic_harness.Experiments.run ~quick ~names ()
  end;
  Format.printf "total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
