(* The serving layer: protocol parsing, differential socket-vs-direct
   execution (on simulator shards, and behind a parallel pool as the
   paper-fidelity oracle), graceful drain without losing parsed requests, and load
   shedding at a tiny queue bound. *)

module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Loadgen = Privagic_loadgen.Loadgen
module Parallel = Privagic_parallel.Parallel
module Programs = Privagic_workloads.Programs
open Privagic_vm

let vsize = 32
let capacity = 512

let plan () =
  let src = Programs.memcached ~nbuckets:64 ~vsize `Colored in
  let m = Privagic_minic.Driver.compile ~file:"memcached.mc" src in
  let infer = Privagic_secure.Infer.run ~mode:Privagic_secure.Mode.Hardened m in
  Alcotest.(check bool) "program accepted" true (Privagic_secure.Infer.ok infer);
  let plan = Privagic_partition.Plan.build ~mode:Privagic_secure.Mode.Hardened infer in
  Alcotest.(check bool) "plan ok" true (Privagic_partition.Plan.ok plan);
  plan

let store_of plan = Server.store_of_pinterp (Pinterp.create plan)

let init_store store =
  match store.Server.st_call "mc_init" [ Rvalue.Int (Int64.of_int capacity) ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "mc_init: %s" m

(* An uninitialized store on [backend], with the parallel pool behind it
   (if any) for the caller to shut down once the server has drained. *)
let backend_store backend plan =
  match backend with
  | `Sim -> (store_of plan, None)
  | `Parallel ->
    let p = Parallel.create ~lanes:2 plan in
    (Helpers.store_of_parallel p, Some p)

(* one initialized backend instance per shard *)
let stores_of plan ~shards =
  Array.init shards (fun _ ->
      let s = store_of plan in
      init_store s;
      s)

(* ------------------------------------------------------------------ *)
(* a minimal blocking socket client *)

type client = { fd : Unix.file_descr; rd : Protocol.resp_reader }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; rd = Protocol.resp_reader () }

let send_all c s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read until [n] responses arrived (or EOF / 10 s timeout). *)
let read_responses ?(timeout = 10.0) c n =
  let buf = Bytes.create 8192 in
  let deadline = Unix.gettimeofday () +. timeout in
  let acc = ref [] and count = ref 0 and eof = ref false in
  while (not !eof) && !count < n && Unix.gettimeofday () < deadline do
    match Unix.select [ c.fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | nread ->
        List.iter
          (fun r ->
            acc := r :: !acc;
            incr count)
          (Protocol.feed_resp c.rd buf nread))
  done;
  List.rev !acc

let request c req = send_all c (Protocol.render_request req)

let rpc c req =
  request c req;
  match read_responses c 1 with
  | [ r ] -> r
  | [] -> Alcotest.fail "no response"
  | _ -> Alcotest.fail "extra responses"

(* ------------------------------------------------------------------ *)

let test_protocol () =
  (* a request stream fed one byte at a time parses identically *)
  let stream = "set 7 5\r\nhello\r\nget 7\r\ndel 7\r\nstats\r\nbogus x\r\nquit\r\n" in
  let r = Protocol.reader () in
  let got = ref [] in
  String.iter
    (fun ch ->
      got := !got @ Protocol.feed r (Bytes.make 1 ch) 1)
    stream;
  (match !got with
  | [ `Req (Protocol.Set (7, "hello")); `Req (Protocol.Get 7);
      `Req (Protocol.Del 7); `Req Protocol.Stats; `Bad _;
      `Req Protocol.Quit ] -> ()
  | l -> Alcotest.failf "unexpected parse (%d items)" (List.length l));
  (* responses survive a render -> fragmented-parse roundtrip *)
  let resps =
    [ Protocol.Value (3, "abc"); Protocol.Miss; Protocol.Stored;
      Protocol.Deleted; Protocol.Not_found; Protocol.Busy;
      Protocol.Stats_reply [ ("a", "1"); ("b", "x y") ];
      Protocol.Error_msg "nope"; Protocol.Ok_msg ]
  in
  let wire = String.concat "" (List.map Protocol.render resps) in
  let pr = Protocol.resp_reader () in
  let parsed = ref [] in
  String.iter
    (fun ch -> parsed := !parsed @ Protocol.feed_resp pr (Bytes.make 1 ch) 1)
    wire;
  Alcotest.(check int) "all responses parsed" (List.length resps)
    (List.length !parsed);
  List.iter2
    (fun want got ->
      if want <> got then Alcotest.fail "response roundtrip mismatch")
    resps !parsed;
  (* oversized set is rejected without killing the parser *)
  let r2 = Protocol.reader () in
  let big = Printf.sprintf "set 1 %d\r\n" (Protocol.max_value_len + 1) in
  (match Protocol.feed r2 (Bytes.of_string big) (String.length big) with
  | [ `Bad _ ] -> ()
  | _ -> Alcotest.fail "oversized set not rejected");
  match Protocol.feed r2 (Bytes.of_string "get 1\r\n") 7 with
  | [ `Req (Protocol.Get 1) ] -> ()
  | _ -> Alcotest.fail "parser dead after oversized set"

(* Differential: the same operation sequence over a socket (server on
   backend A, possibly sharded) and directly against an unsharded
   instance (same backend); every observable response must agree — each
   key lives wholly in one shard, so sharding must be invisible. *)
let test_differential ?(backend = `Sim) ~shards () =
  let bnd =
    match Server.bindings_of_plan (plan ()) with
    | Some b -> b
    | None -> Alcotest.fail "bindings_of_plan failed"
  in
  let cfg = { Server.default_config with Server.port = 0; shards; vsize } in
  let cells =
    Array.init shards (fun _ ->
        let s, pool = backend_store backend (plan ()) in
        init_store s;
        (s, pool))
  in
  let srv = Server.start cfg bnd (Array.map fst cells) in
  (* the direct side: a fresh instance of the same program *)
  let dstore, dpool = backend_store backend (plan ()) in
  init_store dstore;
  let dvbuf = dstore.Server.st_alloc vsize
  and dobuf = dstore.Server.st_alloc vsize in
  let dlengths = Hashtbl.create 64 in
  let direct op =
    match op with
    | Protocol.Set (k, v) -> (
      dstore.Server.st_write dvbuf
        (v ^ String.make (vsize - String.length v) '\000');
      match
        dstore.Server.st_call "mc_set"
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr dvbuf ]
      with
      | Ok _ ->
        Hashtbl.replace dlengths k (String.length v);
        Protocol.Stored
      | Error m -> Alcotest.failf "direct set: %s" m)
    | Protocol.Get k -> (
      match
        dstore.Server.st_call "mc_get"
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr dobuf ]
      with
      | Ok v when Rvalue.truthy v ->
        let len = try Hashtbl.find dlengths k with Not_found -> vsize in
        Protocol.Value (k, dstore.Server.st_read dobuf len)
      | Ok _ -> Protocol.Miss
      | Error m -> Alcotest.failf "direct get: %s" m)
    | Protocol.Del k -> (
      match dstore.Server.st_call "mc_delete" [ Rvalue.Int (Int64.of_int k) ] with
      | Ok v when Rvalue.truthy v ->
        Hashtbl.remove dlengths k;
        Protocol.Deleted
      | Ok _ -> Protocol.Not_found
      | Error m -> Alcotest.failf "direct del: %s" m)
    | _ -> Alcotest.fail "direct: unsupported op"
  in
  let c = connect (Server.port srv) in
  (* a deterministic mixed sequence exercising hit/miss/del/overwrite *)
  let rng = Privagic_workloads.Ycsb.rng 7 in
  let ops =
    List.init 200 (fun i ->
        let k = Privagic_workloads.Ycsb.next_int rng 24 in
        match i mod 5 with
        | 0 | 3 ->
          Protocol.Set
            (k, Privagic_workloads.Ycsb.value_for ~size:(8 + (i mod 20)) k)
        | 1 | 2 -> Protocol.Get k
        | _ -> Protocol.Del k)
  in
  List.iteri
    (fun i op ->
      let got = rpc c op in
      let want = direct op in
      if got <> want then
        Alcotest.failf "op %d diverged: socket=%s direct=%s" i
          (Protocol.render got) (Protocol.render want))
    ops;
  (* stats must flow through the same connection unharmed *)
  (match rpc c Protocol.Stats with
  | Protocol.Stats_reply kvs ->
    Alcotest.(check bool) "stats has ops" true (List.mem_assoc "ops" kvs)
  | _ -> Alcotest.fail "stats failed");
  (match rpc c Protocol.Quit with
  | exception _ -> ()
  | _ -> Alcotest.fail "quit answered");
  Server.drain srv;
  List.iter
    (fun p -> ignore (Parallel.shutdown p : bool))
    (List.filter_map Fun.id (dpool :: Array.to_list (Array.map snd cells)))

(* Graceful drain: requests already parsed by the server are answered
   before the connection closes, even with the store slowed down and the
   queue bound at 1. With shards > 1 most of the burst crosses shards,
   so the drain barrier must also flush in-flight inbox handoffs. *)
let test_drain_no_loss ~shards () =
  let p = plan () in
  let slow_stores =
    Array.init shards (fun _ ->
        let inner = store_of p in
        init_store inner;
        { inner with
          Server.st_call =
            (fun name args ->
              Unix.sleepf 0.003;
              inner.Server.st_call name args) })
  in
  let bnd = Option.get (Server.bindings_of_plan p) in
  let cfg =
    { Server.default_config with
      Server.port = 0; shards; vsize; queue_depth = 1;
      max_batch = 1; policy = Server.Block }
  in
  let srv = Server.start cfg bnd slow_stores in
  let c = connect (Server.port srv) in
  let n = 20 in
  let reqs = Buffer.create 256 in
  for k = 0 to n - 1 do
    Buffer.add_string reqs (Protocol.render_request (Protocol.Set (k, "v")))
  done;
  send_all c (Buffer.contents reqs);
  (* let the worker parse the burst, then drain mid-flight *)
  Unix.sleepf 0.2;
  let drainer = Thread.create (fun () -> Server.drain srv) () in
  let resps = read_responses c n in
  Thread.join drainer;
  Alcotest.(check int) "every parsed set answered" n (List.length resps);
  List.iter
    (fun r ->
      if r <> Protocol.Stored then Alcotest.fail "non-STORED under drain")
    resps;
  let s = Server.stats srv in
  Alcotest.(check int) "server counted them" n s.Server.s_sets

(* 'stats metrics' loopback: the Prometheus exposition must arrive over
   a plain socket, closed by END, carrying the serving/vm/replication
   metric families — the same probe the CI serve smoke runs with nc. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Metrics_reply is deliberately not parsed by resp_reader: read the raw
   stream until the END line, like an external probe would. *)
let read_until_end ?(timeout = 10.0) c =
  let buf = Bytes.create 8192 in
  let acc = Buffer.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let eof = ref false in
  while
    (not !eof)
    && (not (contains ~needle:"END\r\n" (Buffer.contents acc)))
    && Unix.gettimeofday () < deadline
  do
    match Unix.select [ c.fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | n -> Buffer.add_subbytes acc buf 0 n)
  done;
  Buffer.contents acc

let test_stats_metrics_loopback () =
  Privagic_obs.set_enabled true;
  let store = store_of (plan ()) in
  init_store store;
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let srv =
    Server.start { Server.default_config with Server.port = 0; vsize } bnd
      [| store |]
  in
  let c = connect (Server.port srv) in
  (* a served op first, so op counters have something to show *)
  (match rpc c (Protocol.Set (1, "v")) with
  | Protocol.Stored -> ()
  | r -> Alcotest.failf "set: %s" (Protocol.render r));
  send_all c "stats metrics\r\n";
  let text = read_until_end c in
  List.iter
    (fun needle ->
      if not (contains ~needle text) then
        Alcotest.failf "metrics exposition missing %S in:\n%s" needle text)
    [
      "# TYPE privagic_server_ops_total";
      "privagic_server_ops_total{op=\"set\"} 1";
      "privagic_server_conns_open";
      "privagic_server_queue_depth{shard=";
      "# TYPE privagic_server_latency_us summary";
      "quantile=\"0.999\"";
      "privagic_repl_lag_us";
      "privagic_vm_steps_total";
      "END\r\n";
    ];
  (* the connection must keep serving normal requests afterwards *)
  (match rpc c (Protocol.Get 1) with
  | Protocol.Value _ -> ()
  | r -> Alcotest.failf "get after metrics: %s" (Protocol.render r));
  Unix.close c.fd;
  Server.drain srv

(* Shedding: queue bound 1, one shard, slow store, several closed-loop
   clients — SERVER_BUSY must fire, and every shed op must succeed on
   retry (the load generator retries and demands zero errors). *)
let test_shedding () =
  let inner = store_of (plan ()) in
  init_store inner;
  let slow =
    { inner with
      Server.st_call =
        (fun name args ->
          Unix.sleepf 0.004;
          inner.Server.st_call name args) }
  in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg =
    { Server.default_config with
      Server.port = 0; vsize; queue_depth = 1; max_batch = 1;
      policy = Server.Shed }
  in
  let srv = Server.start cfg bnd [| slow |] in
  let lg =
    { Loadgen.default_config with
      Loadgen.port = Server.port srv; clients = 6; ops = 150;
      record_count = 16; vsize = 8; preload = false; shutdown = false }
  in
  let r = Loadgen.run lg in
  Server.drain srv;
  Alcotest.(check int) "all ops eventually answered" 150 r.Loadgen.r_ops_ok;
  Alcotest.(check int) "no errors" 0 r.Loadgen.r_errors;
  Alcotest.(check bool)
    (Printf.sprintf "shedding fired (busy=%d)" r.Loadgen.r_busy)
    true (r.Loadgen.r_busy > 0);
  let s = Server.stats srv in
  Alcotest.(check bool) "server counted sheds" true (s.Server.s_shed > 0)

(* Pipelining: one connection, a single write carrying a long burst of
   interdependent requests (same-key read-after-write chains spread over
   every shard, plus multi-shard barriers: a cross-shard txn and a scan
   mid-burst). Responses must come back exactly in request order, and
   per-key program order must hold even though the keys' shards execute
   concurrently. *)
let test_pipelined_burst () =
  let shards = 4 in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg =
    { Server.default_config with Server.port = 0; shards; vsize }
  in
  let srv = Server.start cfg bnd (stores_of (plan ()) ~shards) in
  let c = connect (Server.port srv) in
  let reqs = ref [] and want = ref [] in
  let push req resp =
    reqs := req :: !reqs;
    want := resp :: !want
  in
  for k = 0 to 15 do
    (* k covers every shard (k mod 4); each key: set, overwrite, read *)
    push (Protocol.Set (k, Printf.sprintf "a%d" k)) Protocol.Stored;
    push (Protocol.Set (k, Printf.sprintf "b%d" k)) Protocol.Stored;
    push (Protocol.Get k) (Protocol.Value (k, Printf.sprintf "b%d" k))
  done;
  (* a cross-shard transaction mid-pipeline: a barrier that must still
     answer in order *)
  push
    (Protocol.Txn [ Protocol.T_set (100, "x"); Protocol.T_set (101, "y") ])
    (Protocol.Txn_reply [ Protocol.R_stored; Protocol.R_stored ]);
  push (Protocol.Get 100) (Protocol.Value (100, "x"));
  push (Protocol.Get 101) (Protocol.Value (101, "y"));
  (* and a scan merging all four shards' cursors (the colored plan's
     index entries are key+version only) *)
  push
    (Protocol.Scan { sc_start = 0; sc_stop = 3; sc_limit = 10 })
    (Protocol.Scan_reply
       (List.init 4 (fun k ->
            { Protocol.si_key = k; si_ver = 2; si_val = None })));
  for k = 0 to 15 do
    push (Protocol.Del k) Protocol.Deleted
  done;
  let reqs = List.rev !reqs and want = List.rev !want in
  let burst =
    String.concat "" (List.map Protocol.render_request reqs)
  in
  send_all c burst;
  let got = read_responses c (List.length want) in
  Alcotest.(check int) "every pipelined request answered"
    (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if w <> g then
        Alcotest.failf "pipelined response %d out of order/wrong: want %s got %s"
          i (Protocol.render w) (Protocol.render g))
    (List.combine want got);
  Unix.close c.fd;
  Server.drain srv;
  let s = Server.stats srv in
  Alcotest.(check int) "shards reported" shards s.Server.s_shards;
  Alcotest.(check bool) "cross-shard requests flowed" true
    (s.Server.s_xshard > 0);
  (* each shard times what it executes; the merged histogram counts every
     request exactly once *)
  Alcotest.(check int) "every request timed once" (List.length want)
    s.Server.s_latency.Privagic_telemetry.Metrics.n

(* An idle server drains at once. The self-pipe wakeup that announces the
   drain must not be spent on a loop iteration that read the flag before
   it was set: the next wakeup only comes after every shard has passed
   stage 1, so such a shard sat out the full 5 s draining timeout. *)
let test_idle_drain () =
  let shards = 2 in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg = { Server.default_config with Server.port = 0; shards; vsize } in
  let srv = Server.start cfg bnd (stores_of (plan ()) ~shards) in
  (* let both shard loops block in select *)
  Unix.sleepf 0.1;
  let t0 = Unix.gettimeofday () in
  Server.drain srv;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "idle drain took %.2f s (< 1 s)" dt)
    true (dt < 1.0)

let suite =
  [
    Alcotest.test_case "protocol: fragmented parse + roundtrip" `Quick
      test_protocol;
    Alcotest.test_case "differential socket-vs-direct (sim)" `Quick
      (test_differential ~shards:1);
    Alcotest.test_case "differential socket-vs-direct (sim, 4 shards)" `Quick
      (test_differential ~shards:4);
    Alcotest.test_case "differential socket-vs-direct (parallel)" `Slow
      (test_differential ~backend:`Parallel ~shards:1);
    Alcotest.test_case "differential socket-vs-direct (parallel, 2 shards)"
      `Slow
      (test_differential ~backend:`Parallel ~shards:2);
    Alcotest.test_case "graceful drain loses no parsed request" `Quick
      (test_drain_no_loss ~shards:1);
    Alcotest.test_case "sharded drain loses no parsed request" `Quick
      (test_drain_no_loss ~shards:4);
    Alcotest.test_case "pipelined burst: in-order responses across shards"
      `Quick test_pipelined_burst;
    Alcotest.test_case "stats metrics loopback" `Quick
      test_stats_metrics_loopback;
    Alcotest.test_case "shedding at queue bound 1" `Quick test_shedding;
    Alcotest.test_case "idle sharded server drains in under 1 s" `Quick
      test_idle_drain;
  ]
