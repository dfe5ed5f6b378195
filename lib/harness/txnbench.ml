(* See the .mli. Everything in-process over loopback TCP, like
   replbench: loadgen drives the YCSB-E and YCSB-F mixes through the
   public socket path, then a single blocking connection runs the
   multi-op transaction phase — half the transactions carry a CAS guard
   seeded with a stale version, so both the commit and the abort paths
   are measured and the server's commit/abort counters have known
   expected values. *)

module Tel = Privagic_telemetry
module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Loadgen = Privagic_loadgen.Loadgen
open Privagic_vm

type mix_cell = {
  tb_mix : string;
  tb_ops_ok : int;
  tb_wall_seconds : float;
  tb_throughput_kops : float;
  tb_latency_us : Tel.Metrics.pctiles;
  tb_scans : int;
  tb_scan_items : int;
  tb_rmw_conflicts : int;
  tb_busy : int;
  tb_errors : int;
}

type txn_phase = {
  tp_txns : int;
  tp_commits : int;
  tp_aborts : int;
  tp_wall_seconds : float;
  tp_txns_per_sec : float;
}

type t = {
  tb_records : int;
  tb_ops : int;
  tb_mixes : mix_cell list;
  tb_txn : txn_phase;
  tb_srv_txns : int;
  tb_srv_txn_commits : int;
  tb_srv_txn_aborts : int;
  tb_srv_cas_conflicts : int;
  tb_srv_scans : int;
  tb_srv_scan_items : int;
}

let vsize = 32

(* two shards so the even-i transactions (keys k and k+1) exercise the
   cross-shard two-phase commit path, not just single-shard commits *)
let shards = 2

let make_server ~capacity () =
  let src = Kv.source Kv.Memcached `Colored ~nbuckets:256 ~vsize in
  let m = Privagic_minic.Driver.compile ~file:"program.mc" src in
  let mode = Kv.mode_for Kv.Memcached in
  let infer = Privagic_secure.Infer.run ~mode m in
  if not (Privagic_secure.Infer.ok infer) then
    invalid_arg "txnbench: program rejected by the checker";
  let plan = Privagic_partition.Plan.build ~mode infer in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    invalid_arg "txnbench: partitioning rejected";
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let stores =
    Array.init shards (fun _ ->
        let store = Server.store_of_pinterp (Pinterp.create plan) in
        (match bnd.Server.b_init with
        | Some entry -> (
          match
            store.Server.st_call entry [ Rvalue.Int (Int64.of_int capacity) ]
          with
          | Ok _ -> ()
          | Error m -> invalid_arg ("txnbench: init failed: " ^ m))
        | None -> ());
        store)
  in
  Server.start
    { Server.default_config with Server.port = 0; shards; vsize }
    bnd stores

let cell_of mix (r : Loadgen.result) =
  {
    tb_mix = Loadgen.mix_name mix;
    tb_ops_ok = r.Loadgen.r_ops_ok;
    tb_wall_seconds = r.Loadgen.r_wall_seconds;
    tb_throughput_kops = r.Loadgen.r_throughput_kops;
    tb_latency_us = r.Loadgen.r_latency;
    tb_scans = r.Loadgen.r_scans;
    tb_scan_items = r.Loadgen.r_scan_items;
    tb_rmw_conflicts = r.Loadgen.r_rmw_conflicts;
    tb_busy = r.Loadgen.r_busy;
    tb_errors = r.Loadgen.r_errors;
  }

(* --- the multi-op transaction phase: one blocking connection --- *)

let send_all fd s =
  let b = Bytes.of_string s in
  let rec wr off =
    if off < Bytes.length b then
      wr (off + Unix.write fd b off (Bytes.length b - off))
  in
  wr 0

(* Read until the reader yields one response (the connection carries one
   outstanding request at a time). *)
let recv_one fd rd =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> invalid_arg "txnbench: server closed the txn connection"
    | n -> (
      match Protocol.feed_resp rd buf n with
      | [] -> go ()
      | [ r ] -> r
      | r :: _ -> r)
  in
  go ()

let run_txn_phase ~port ~txns ~base_key =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let rd = Protocol.resp_reader () in
      (* the phase owns its key range (above anything the mixes touched),
         so committed versions are tracked exactly client-side *)
      let versions = Hashtbl.create 64 in
      let ver k = Option.value ~default:0 (Hashtbl.find_opt versions k) in
      let commits = ref 0 and aborts = ref 0 in
      let start = Unix.gettimeofday () in
      for i = 0 to txns - 1 do
        let k = base_key + (i mod 32) in
        let payload = Privagic_workloads.Ycsb.value_for ~size:vsize k in
        let req =
          if i mod 2 = 0 then
            (* read–check–write on one key plus a blind write on its
               neighbour: the canonical multi-key RMW commit *)
            Protocol.Txn
              [ Protocol.T_get k;
                Protocol.T_cas (k, ver k, payload);
                Protocol.T_set (k + 1, payload) ]
          else
            (* stale guard: must abort without touching the store *)
            Protocol.Txn [ Protocol.T_cas (k, ver k + 1000, payload) ]
        in
        send_all fd (Protocol.render_request req);
        (match recv_one fd rd with
        | Protocol.Txn_reply _ ->
          incr commits;
          Hashtbl.replace versions k (ver k + 1);
          Hashtbl.replace versions (k + 1) (ver (k + 1) + 1)
        | Protocol.Txn_abort _ -> incr aborts
        | Protocol.Busy -> invalid_arg "txnbench: unexpected SERVER_BUSY"
        | Protocol.Error_msg m -> invalid_arg ("txnbench: txn error: " ^ m)
        | _ -> invalid_arg "txnbench: unexpected txn response")
      done;
      let wall = Unix.gettimeofday () -. start in
      {
        tp_txns = txns;
        tp_commits = !commits;
        tp_aborts = !aborts;
        tp_wall_seconds = wall;
        tp_txns_per_sec =
          (if wall > 0.0 then float_of_int txns /. wall else 0.0);
      })

(* ------------------------------------------------------------------ *)

let run_all ~quick () =
  let records = if quick then 128 else 512 in
  let ops = if quick then 1_000 else 5_000 in
  let txns = if quick then 200 else 1_000 in
  let srv = make_server ~capacity:(records * 8) () in
  let port = Server.port srv in
  let base_cfg =
    {
      Loadgen.default_config with
      Loadgen.port;
      clients = 4;
      ops;
      record_count = records;
      vsize;
      scan_len = 16;
    }
  in
  let e =
    Loadgen.run { base_cfg with Loadgen.mix = Loadgen.Ycsb_e }
  in
  let f =
    Loadgen.run
      { base_cfg with Loadgen.mix = Loadgen.Ycsb_f; preload = false }
  in
  let tp = run_txn_phase ~port ~txns ~base_key:(records + 10_000) in
  let st = Server.stats srv in
  Server.drain srv;
  {
    tb_records = records;
    tb_ops = ops;
    tb_mixes =
      [ cell_of Loadgen.Ycsb_e e; cell_of Loadgen.Ycsb_f f ];
    tb_txn = tp;
    tb_srv_txns = st.Server.s_txns;
    tb_srv_txn_commits = st.Server.s_txn_commits;
    tb_srv_txn_aborts = st.Server.s_txn_aborts;
    tb_srv_cas_conflicts = st.Server.s_cas_conflicts;
    tb_srv_scans = st.Server.s_scans;
    tb_srv_scan_items = st.Server.s_scan_items;
  }

let write_json ~path ~quick (r : t) =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let pct (x : Tel.Metrics.pctiles) =
    Printf.sprintf
      "{ \"n\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": \
       %.1f, \"p999\": %.1f, \"max\": %.1f }"
      x.Tel.Metrics.n x.Tel.Metrics.p_mean x.Tel.Metrics.p50 x.Tel.Metrics.p95
      x.Tel.Metrics.p99 x.Tel.Metrics.p999 x.Tel.Metrics.p_max
  in
  p "{\n";
  p "  \"bench\": \"txn\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"family\": \"memcached\", \"backend\": \"sim\", \"vsize\": %d,\n"
    vsize;
  p "  \"records\": %d, \"ops\": %d,\n" r.tb_records r.tb_ops;
  p "  \"mixes\": [\n";
  List.iteri
    (fun i c ->
      p "    { \"mix\": %S, \"ops_ok\": %d, \"busy\": %d, \"errors\": %d,\n"
        c.tb_mix c.tb_ops_ok c.tb_busy c.tb_errors;
      p "      \"wall_seconds\": %.6f, \"throughput_kops\": %.3f,\n"
        c.tb_wall_seconds c.tb_throughput_kops;
      p "      \"achieved_rate_ops\": %.1f,\n"
        (if c.tb_wall_seconds > 0.0 then
           float_of_int c.tb_ops_ok /. c.tb_wall_seconds
         else 0.0);
      p "      \"scans\": %d, \"scan_items\": %d, \"rmw_conflicts\": %d,\n"
        c.tb_scans c.tb_scan_items c.tb_rmw_conflicts;
      p "      \"latency_us\": %s }%s\n" (pct c.tb_latency_us)
        (if i = List.length r.tb_mixes - 1 then "" else ","))
    r.tb_mixes;
  p "  ],\n";
  p "  \"txn_phase\": { \"txns\": %d, \"commits\": %d, \"aborts\": %d,\n"
    r.tb_txn.tp_txns r.tb_txn.tp_commits r.tb_txn.tp_aborts;
  p "    \"wall_seconds\": %.6f, \"txns_per_sec\": %.1f },\n"
    r.tb_txn.tp_wall_seconds r.tb_txn.tp_txns_per_sec;
  p "  \"server\": { \"txns\": %d, \"txn_commits\": %d, \"txn_aborts\": %d,\n"
    r.tb_srv_txns r.tb_srv_txn_commits r.tb_srv_txn_aborts;
  p "    \"cas_conflicts\": %d, \"scans\": %d, \"scan_items\": %d }\n"
    r.tb_srv_cas_conflicts r.tb_srv_scans r.tb_srv_scan_items;
  p "}\n";
  close_out oc

let run ?(quick = false) ?(path = "BENCH_txn.json") () =
  let r = run_all ~quick () in
  Format.printf "@[<v>txn bench (memcached, sim backend)@,%s@]@."
    (String.concat "\n"
       (List.map
          (fun c ->
            Printf.sprintf
              "  %-7s %8.2f kops/s  p50/p99 %.0f/%.0f us  scans %d (%d \
               items)  rmw conflicts %d"
              c.tb_mix c.tb_throughput_kops c.tb_latency_us.Tel.Metrics.p50
              c.tb_latency_us.Tel.Metrics.p99 c.tb_scans c.tb_scan_items
              c.tb_rmw_conflicts)
          r.tb_mixes));
  Format.printf
    "  txn phase: %d txns, %d commits, %d aborts, %.0f txns/s@."
    r.tb_txn.tp_txns r.tb_txn.tp_commits r.tb_txn.tp_aborts
    r.tb_txn.tp_txns_per_sec;
  Format.printf
    "  server counters: txns %d, commits %d, aborts %d, cas_conflicts %d, \
     scans %d@."
    r.tb_srv_txns r.tb_srv_txn_commits r.tb_srv_txn_aborts
    r.tb_srv_cas_conflicts r.tb_srv_scans;
  write_json ~path ~quick r;
  Format.printf "wrote %s@." path;
  r
