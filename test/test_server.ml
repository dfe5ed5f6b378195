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

(* Every response form, byte for byte: the wire format clients parse. *)
let test_render_bytes () =
  let cases =
    [
      (Protocol.Value (7, "ab"), "VALUE 7 2\r\nab\r\nEND\r\n");
      (Protocol.Miss, "END\r\n");
      ( Protocol.Version { v_key = 7; v_ver = 3; v_val = Some "xyz" },
        "VERSION 7 3 3\r\nxyz\r\nEND\r\n" );
      (Protocol.Version { v_key = 9; v_ver = 0; v_val = None }, "VMISS 9 0\r\n");
      (Protocol.Cas_conflict 12, "CAS_CONFLICT 12\r\n");
      ( Protocol.Scan_reply
          [ { Protocol.si_key = 4; si_ver = 2; si_val = Some "hi" };
            { Protocol.si_key = 10; si_ver = 105; si_val = None } ],
        "SCAN 2\r\nSVAL 4 2 2\r\nhi\r\nSKEY 10 105\r\nEND\r\n" );
      (Protocol.Scan_reply [], "SCAN 0\r\nEND\r\n");
      ( Protocol.Txn_reply
          [ Protocol.R_value (Some "v"); Protocol.R_value None; Protocol.R_stored;
            Protocol.R_deleted; Protocol.R_not_found ],
        "TXN 5\r\nRVAL 1\r\nv\r\nRMISS\r\nRSTORED\r\nRDELETED\r\nRNOTFOUND\r\nEND\r\n"
      );
      ( Protocol.Txn_abort { ta_key = 3; ta_expected = 0; ta_found = 1000000 },
        "TXN_ABORT 3 0 1000000\r\n" );
      ( Protocol.Stats_reply [ ("pid", "42"); ("role", "primary") ],
        "STAT pid 42\r\nSTAT role primary\r\nEND\r\n" );
      (Protocol.Error_msg "bad data chunk", "CLIENT_ERROR bad data chunk\r\n");
      (Protocol.Stored, "STORED\r\n");
      (Protocol.Deleted, "DELETED\r\n");
      (Protocol.Not_found, "NOT_FOUND\r\n");
      (Protocol.Busy, "SERVER_BUSY\r\n");
      (Protocol.Ok_msg, "OK\r\n");
    ]
  in
  List.iter
    (fun (resp, wire) ->
      Alcotest.(check string) (String.escaped wire) wire (Protocol.render resp))
    cases;
  let requests =
    [
      (Protocol.Get 0, "get 0\r\n");
      (Protocol.Set (12, "abc"), "set 12 3\r\nabc\r\n");
      (Protocol.Cas { c_key = 1; c_ver = 22; c_val = "" }, "cas 1 22 0\r\n\r\n");
      (Protocol.Scan { sc_start = 5; sc_stop = 90; sc_limit = 10 }, "scan 5 90 10\r\n");
      ( Protocol.Txn [ Protocol.T_get 1; Protocol.T_cas (2, 3, "x"); Protocol.T_del 4 ],
        "txn\r\nt get 1\r\nt cas 2 3 1\r\nx\r\nt del 4\r\nexec\r\n" );
      (Protocol.Repl { r_sync = true; r_from = 17 }, "repl sync 17\r\n");
    ]
  in
  List.iter
    (fun (req, wire) ->
      Alcotest.(check string) (String.escaped wire) wire (Protocol.render_request req))
    requests

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
   so the drain must also serve in-flight inbox handoffs. A second
   connection pipelines its own sets and resets its socket while the
   drain runs: the live connection still gets every reply, the drain
   still returns, and every connection is closed. *)
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
  (* the doomed connection (shard 1's, with shards > 1) sets keys of its
     own on shard 0, so the stores tell how many of its sets ran *)
  let c = connect (Server.port srv) and dead = connect (Server.port srv) in
  let n = 20 and m = 100 and dead_key k = shards * (1000 + k) in
  let burst key v k = List.init k (fun k -> Protocol.render_request (Protocol.Set (key k, v))) in
  send_all c (String.concat "" (burst Fun.id "v" n));
  send_all dead (String.concat "" (burst dead_key "d" m));
  (* drain as soon as the slow stores run the first set: the live
     connection's sets are still queued behind them *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (Server.stats srv).Server.s_sets = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let ran = (Server.stats srv).Server.s_sets in
  let drainer = Thread.create (fun () -> Server.drain srv) () in
  (* an abortive close: the peer sees a reset, not an EOF *)
  Unix.setsockopt_optint dead.fd Unix.SO_LINGER (Some 0);
  Unix.close dead.fd;
  let resps = read_responses c n in
  Thread.join drainer;
  if ran = 0 || ran >= n then Alcotest.failf "%d sets had run when the drain started" ran;
  Alcotest.(check int) "every parsed set answered" n (List.length resps);
  List.iter
    (fun r ->
      if r <> Protocol.Stored then Alcotest.fail "non-STORED under drain")
    resps;
  let st = slow_stores.(0) in
  let buf = st.Server.st_alloc vsize in
  let stored k =
    match st.Server.st_call "mc_get" [ Rvalue.Int (Int64.of_int (dead_key k)); Rvalue.Ptr buf ] with
    | Ok v -> Rvalue.truthy v
    | Error e -> Alcotest.failf "mc_get: %s" e
  in
  let dead_done = List.length (List.filter stored (List.init m Fun.id)) in
  let s = Server.stats srv in
  Alcotest.(check int) "server counted them" (n + dead_done) s.Server.s_sets;
  Alcotest.(check int) "no connection left open" 0 s.Server.s_conns_open

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
    s.Server.s_latency.Privagic_obs.Metrics.n

(* An idle server drains at once. The self-pipe wakeup that announces the
   drain must not be spent on a loop iteration that read the flag before
   it was set: such a shard would never see the drain, so it would never
   finish, and the wakeup that ends the drain waits for every shard. *)
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

(* The shutdown verb drains the server from inside a shard loop. One
   connection pipelines writes and reads over both shards and ends the
   burst in [shutdown]: every earlier request is answered in order, then
   [OK]. Two threads blocked in [wait] and one in [drain] all return,
   every connection is closed, and a second drain returns at once. *)
let test_shutdown_verb () =
  let shards = 2 in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg = { Server.default_config with Server.port = 0; shards; vsize } in
  let srv = Server.start cfg bnd (stores_of (plan ()) ~shards) in
  let waiters = List.init 2 (fun _ -> Thread.create Server.wait srv) in
  let c = connect (Server.port srv) in
  let reqs = ref [] and want = ref [] in
  let push req resp =
    reqs := req :: !reqs;
    want := resp :: !want
  in
  for k = 0 to 7 do
    push (Protocol.Set (k, Printf.sprintf "v%d" k)) Protocol.Stored;
    push (Protocol.Get k) (Protocol.Value (k, Printf.sprintf "v%d" k))
  done;
  push Protocol.Shutdown Protocol.Ok_msg;
  let want = List.rev !want in
  send_all c (String.concat "" (List.rev_map Protocol.render_request !reqs));
  let got = read_responses c (List.length want) in
  Alcotest.(check int) "every request answered" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if w <> g then
        Alcotest.failf "response %d: want %s got %s" i (Protocol.render w)
          (Protocol.render g))
    (List.combine want got);
  (* the verb raised the flag before its OK was written *)
  Alcotest.(check bool) "the verb started the drain" true (Server.is_draining srv);
  let drainer = Thread.create Server.drain srv in
  List.iter Thread.join (drainer :: waiters);
  Unix.close c.fd;
  Alcotest.(check int) "no connection left open" 0 (Server.stats srv).Server.s_conns_open;
  let t0 = Unix.gettimeofday () in
  Server.drain srv;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "second drain took %.3f s (< 0.1 s)" dt) true (dt < 0.1)

(* Scans take no latch: they read each shard's published table, which a
   shard publishes only as it releases its latch. On a 2-shard server,
   with client domains racing the shard loops:
   - a writer pipelines single-shard transactions that set keys 0 and 2
     (both on shard 0) together, so the two always share a version;
     every scan of [0, 2] must show both at one version, or neither;
   - another connection pipelines a set and then a scan of the same key,
     on keys of both shards: each scan sees its own connection's set. *)
let test_scan_snapshot () =
  let shards = 2 and txns = 3000 and batch = 50 in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg = { Server.default_config with Server.port = 0; shards; vsize } in
  let srv = Server.start cfg bnd (stores_of (plan ()) ~shards) in
  let port = Server.port srv in
  let pipeline c reqs =
    send_all c (String.concat "" (List.map Protocol.render_request reqs));
    let got = read_responses c (List.length reqs) in
    if List.length got <> List.length reqs then Alcotest.fail "pipeline: responses lost";
    got
  in
  (* connections go to shards in accept order: the writer's to shard 0,
     where its transactions execute, and the scanner's to shard 1, whose
     loop then scans while shard 0's loop runs transactions *)
  let c = connect port in
  let scanner = connect port in
  let writing = Atomic.make true in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Atomic.set writing false;
            Unix.close c.fd)
          (fun () ->
            for b = 0 to (txns / batch) - 1 do
              let reqs =
                List.init batch (fun i ->
                    let v = Printf.sprintf "v%d" ((b * batch) + i) in
                    Protocol.Txn [ Protocol.T_set (0, v); Protocol.T_set (2, v) ])
              in
              List.iter
                (function
                  | Protocol.Txn_reply [ Protocol.R_stored; Protocol.R_stored ] -> ()
                  | r -> Alcotest.failf "txn: %s" (Protocol.render r))
                (pipeline c reqs)
            done))
  in
  let torn = ref 0 and whole = ref 0 in
  while Atomic.get writing do
    List.iter
      (function
        | Protocol.Scan_reply [] -> ()
        | Protocol.Scan_reply
            [ { Protocol.si_key = 0; si_ver = a; _ }; { Protocol.si_key = 2; si_ver = b; _ } ]
          when a = b ->
          incr whole
        | Protocol.Scan_reply _ -> incr torn
        | r -> Alcotest.failf "scan: %s" (Protocol.render r))
      (pipeline scanner
         (List.init batch (fun _ -> Protocol.Scan { sc_start = 0; sc_stop = 2; sc_limit = 10 })))
  done;
  Domain.join writer;
  Alcotest.(check int) "scans that saw half a transaction" 0 !torn;
  Alcotest.(check bool) "scans saw committed transactions" true (!whole > 0);
  (* read-your-writes: keys 5 (shard 1) and 4 (shard 0), so one of the
     two is remote from the connection's owner whichever shard owns it *)
  let own = connect port in
  let rounds = 40 in
  let reqs =
    List.concat
      (List.init rounds (fun i ->
           let k = 4 + (i mod 2) in
           [ Protocol.Set (k, "w"); Protocol.Scan { sc_start = k; sc_stop = k; sc_limit = 1 } ]))
  in
  List.iteri
    (fun j r ->
      if j mod 2 = 1 then begin
        let i = j / 2 in
        let k = 4 + (i mod 2) and ver = 1 + (i / 2) in
        match r with
        | Protocol.Scan_reply [ { Protocol.si_key; si_ver; _ } ]
          when si_key = k && si_ver = ver -> ()
        | r -> Alcotest.failf "scan %d after its own set of %d: %s" i k (Protocol.render r)
      end)
    (pipeline own reqs);
  List.iter (fun c -> Unix.close c.fd) [ scanner; own ];
  Server.drain srv

(* A traced 2-shard server under pipelined clients on both shards, its
   rings merged after the drain. Every writer owns its ring, so slices
   balance on every track, request spans stay on the loop tracks, each
   shard's VM tracks carry the shard, and virtual and wall-clock events
   fall in separate clock domains. *)
let test_traced_shards () =
  let module Ring = Privagic_obs.Ring in
  let shards = 2 in
  let bnd = Option.get (Server.bindings_of_plan (plan ())) in
  let cfg =
    { Server.default_config with Server.port = 0; shards; vsize; trace = true }
  in
  let srv = Server.start cfg bnd (stores_of (plan ()) ~shards) in
  let r =
    Loadgen.run
      { Loadgen.default_config with
        Loadgen.port = Server.port srv; clients = 4; depth = 16; ops = 2000;
        record_count = 64; vsize = 8 }
  in
  Server.drain srv;
  Alcotest.(check (pair int int)) "every op answered, no error" (2000, 0)
    (r.Loadgen.r_ops_ok, r.Loadgen.r_errors);
  let rings = Server.rings srv in
  List.iter
    (fun r ->
      Alcotest.(check int) (Ring.label r ^ " dropped") 0 (Ring.dropped r))
    rings;
  let tracks = Ring.tracks rings in
  let stacks = Array.make (Array.length tracks) [] in
  let bad = ref 0 and reqs = ref 0 in
  Array.iter
    (fun (e : Ring.event) ->
      let k = e.Ring.ev_track and name, clock = tracks.(e.Ring.ev_track) in
      if e.Ring.ev_clock <> clock then Alcotest.fail "event off its clock";
      match e.Ring.ev_kind with
      | Privagic_obs.Ev.Req_begin
        when clock <> Ring.Wall || not (String.ends_with ~suffix:"/srv" name) ->
        Alcotest.failf "request span on track %s" name
      | Chunk_begin | Req_begin ->
        if e.Ring.ev_kind = Req_begin then incr reqs;
        stacks.(k) <- e.Ring.ev_name :: stacks.(k)
      | Chunk_end | Req_end -> (
        (* slices pair up, by name, on their own track *)
        match stacks.(k) with
        | n :: rest when n = e.Ring.ev_name -> stacks.(k) <- rest
        | _ -> incr bad)
      | _ -> ())
    (Ring.events rings);
  Alcotest.(check int) "ends matching their begin" 0 !bad;
  Alcotest.(check (list (list string))) "begins left open" []
    (List.filter (( <> ) []) (Array.to_list stacks));
  Alcotest.(check bool) "request spans recorded" true (!reqs > 0);
  let vm =
    List.filter_map
      (fun (n, c) -> if c = Ring.Virtual then Some n else None)
      (Array.to_list tracks)
  in
  let shard_of n =
    List.find_opt (fun s -> String.starts_with ~prefix:s n) [ "s0/t"; "s1/t" ]
  in
  Alcotest.(check (list string)) "VM tracks carry their shard" []
    (List.filter (fun n -> shard_of n = None) vm);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " has VM tracks") true
        (List.exists (String.starts_with ~prefix:s) vm))
    [ "s0/"; "s1/" ]

let suite =
  [
    Alcotest.test_case "protocol: fragmented parse + roundtrip" `Quick
      test_protocol;
    Alcotest.test_case "protocol: every response form, byte for byte" `Quick
      test_render_bytes;
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
    Alcotest.test_case "shutdown verb drains a 2-shard server" `Quick
      test_shutdown_verb;
    Alcotest.test_case "traced 2-shard server: per-writer rings balance"
      `Quick test_traced_shards;
    Alcotest.test_case "latch-free scans see whole latch holds and own writes"
      `Quick test_scan_snapshot;
  ]
