(* The replication subsystem (DESIGN.md §8.10): the sealing model, the
   delta codec, commit-log numbering, and the end-to-end property the
   design exists for — a replica fed only the primary's delta stream
   converges to globals bit-equal to a virtual-time oracle replaying the
   committed write log, for every program family, both engines, and both
   sync and async shipping. Plus the transport rule as a trace property:
   a secret-colored payload never appears in plaintext on the wire. *)

module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Parallel = Privagic_parallel.Parallel
module Programs = Privagic_workloads.Programs
module Mode = Privagic_secure.Mode
module Seal = Privagic_replication.Seal
module Delta = Privagic_replication.Delta
module Log = Privagic_replication.Log
module Replica = Privagic_replication.Replica
module Shipper = Privagic_replication.Shipper
module Pmodule = Privagic_pir.Pmodule
module Ty = Privagic_pir.Ty
open Privagic_vm

let vsize = 32
let capacity = 512

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let plan_of ?(mode = Mode.Hardened) src =
  let m = Privagic_minic.Driver.compile ~file:"repl.mc" src in
  let infer = Privagic_secure.Infer.run ~mode m in
  Alcotest.(check bool) "program accepted" true (Privagic_secure.Infer.ok infer);
  let plan = Privagic_partition.Plan.build ~mode infer in
  Alcotest.(check bool) "plan ok" true (Privagic_partition.Plan.ok plan);
  plan

(* the declassified final state: every integer-typed global, read
   straight out of the backend heap (test_parallel's comparison) *)
let int_globals m =
  List.filter_map
    (fun (g : Pmodule.global) ->
      match g.Pmodule.gty.Ty.desc with
      | Ty.I64 -> Some g.Pmodule.gname
      | _ -> None)
    (Pmodule.globals_sorted m)

let read_globals (ex : Exec.t) names =
  List.map
    (fun n -> (n, Heap.load ex.Exec.heap (Hashtbl.find ex.Exec.globals n) 8))
    names

(* ------------------------------------------------------------------ *)
(* seal model *)

let test_seal () =
  let k = Seal.derive ~cluster:"privagic" "red" in
  let p = "attack at dawn" in
  let ct = Seal.seal ~key:k ~nonce:7 p in
  Alcotest.(check int) "tag overhead"
    (String.length p + Seal.overhead)
    (String.length ct);
  Alcotest.(check bool) "ciphertext hides plaintext" false
    (contains ~needle:p ct);
  (match Seal.unseal ~key:k ~nonce:7 ct with
  | Ok p' -> Alcotest.(check string) "roundtrip" p p'
  | Error e -> Alcotest.failf "unseal: %s" e);
  (* authenticated: flipping any single byte is detected *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string ct in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      match Seal.unseal ~key:k ~nonce:7 (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "tampered byte %d accepted" i)
    ct;
  (* wrong nonce, wrong color, wrong cluster all fail *)
  (match Seal.unseal ~key:k ~nonce:8 ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong nonce accepted");
  (match
     Seal.unseal ~key:(Seal.derive ~cluster:"privagic" "blue") ~nonce:7 ct
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong color key accepted");
  (match Seal.unseal ~key:(Seal.derive ~cluster:"other" "red") ~nonce:7 ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong cluster key accepted");
  (* nonce separation *)
  Alcotest.(check bool) "nonce-separated ciphertexts" false
    (Seal.seal ~key:k ~nonce:1 p = Seal.seal ~key:k ~nonce:2 p);
  (* short input and empty payload *)
  (match Seal.unseal ~key:k ~nonce:1 "xy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short input accepted");
  (match Seal.unseal ~key:k ~nonce:3 (Seal.seal ~key:k ~nonce:3 "") with
  | Ok "" -> ()
  | _ -> Alcotest.fail "empty payload roundtrip");
  Alcotest.(check bool) "cost grows with size" true
    (Seal.cost_cycles 4096 > Seal.cost_cycles 16)

(* ------------------------------------------------------------------ *)
(* delta codec *)

let test_delta_codec () =
  let k = Seal.derive ~cluster:"c" "red" in
  let sealer =
    Some (fun ~color:_ ~nonce p -> Seal.seal ~key:k ~nonce p)
  in
  (* a binary payload exercising \r\n and NUL inside the length-prefixed
     block *)
  let binary = String.init 32 Char.chr in
  let ds =
    [ { Delta.seq = 1; op = Delta.Put { key = 5; color = "red"; payload = "hello\r\nworld" } };
      { Delta.seq = 2; op = Delta.Put { key = 6; color = "U"; payload = binary } };
      { Delta.seq = 3; op = Delta.Del { key = 5 } } ]
  in
  let wire =
    Delta.render_ok 1 ^ String.concat "" (List.map (Delta.render ~sealer) ds)
  in
  let rd = Delta.reader () in
  let frames = Delta.feed rd (Bytes.of_string wire) (String.length wire) in
  (match frames with
  | [ Delta.Ok_hello 1;
      Delta.Frame { d = { seq = 1; op = Delta.Put { key = 5; color = "red"; payload = sealed_p } }; sealed = true };
      Delta.Frame { d = { seq = 2; op = Delta.Put { key = 6; color = "U"; payload = plain_p } }; sealed = false };
      Delta.Frame { d = { seq = 3; op = Delta.Del { key = 5 } }; sealed = false } ] ->
    Alcotest.(check string) "plain binary payload survives" binary plain_p;
    (match Seal.unseal ~key:k ~nonce:1 sealed_p with
    | Ok p -> Alcotest.(check string) "sealed payload unseals" "hello\r\nworld" p
    | Error e -> Alcotest.failf "unseal: %s" e)
  | l -> Alcotest.failf "unexpected frames (%d)" (List.length l));
  (* a corrupt frame poisons the reader: it stops consuming *)
  let rd2 = Delta.reader () in
  let bad = "DBOGUS 1 2\r\n" in
  (match Delta.feed rd2 (Bytes.of_string bad) (String.length bad) with
  | [ Delta.Corrupt _ ] -> ()
  | _ -> Alcotest.fail "corrupt frame not flagged");
  let ok = Delta.render ~sealer:None (List.nth ds 2) in
  Alcotest.(check int) "poisoned reader consumes nothing" 0
    (List.length (Delta.feed rd2 (Bytes.of_string ok) (String.length ok)));
  (* ack lines *)
  let ar = Delta.ack_reader () in
  let s = Delta.render_ack 5 ^ Delta.render_ack 9 ^ "junk\r\n" in
  (match Delta.feed_acks ar (Bytes.of_string s) (String.length s) with
  | [ Ok 5; Ok 9; Error _ ] -> ()
  | _ -> Alcotest.fail "ack parse");
  (* the hello line is a serving-protocol request *)
  let hello = Delta.render_hello ~sync:true ~from_seq:7 in
  let pr = Protocol.reader () in
  match Protocol.feed pr (Bytes.of_string hello) (String.length hello) with
  | [ `Req (Protocol.Repl { r_sync = true; r_from = 7 }) ] -> ()
  | _ -> Alcotest.fail "repl hello not parsed by the serving protocol"

(* ------------------------------------------------------------------ *)
(* commit log *)

let test_log () =
  let l = Log.create () in
  Alcotest.(check int) "empty head" 0 (Log.head l);
  let d1 = Delta.Put { key = 1; color = "U"; payload = "a" } in
  let d2 = Delta.Del { key = 1 } in
  Alcotest.(check int) "first seq" 1 (Log.append l d1);
  Alcotest.(check int) "second seq" 2 (Log.append l d2);
  (match Log.get l 2 with
  | Some { Delta.seq = 2; op = Delta.Del { key = 1 } } -> ()
  | _ -> Alcotest.fail "get");
  Alcotest.(check bool) "get out of range" true (Log.get l 3 = None);
  (* a replica mirror must extend exactly head + 1 *)
  let m = Log.create () in
  Log.append_at m ~seq:1 d1;
  (try
     Log.append_at m ~seq:3 d2;
     Alcotest.fail "gap accepted"
   with Invalid_argument _ -> ());
  (try
     Log.append_at m ~seq:1 d1;
     Alcotest.fail "replay accepted"
   with Invalid_argument _ -> ());
  Log.append_at m ~seq:2 d2;
  Alcotest.(check int) "mirror head" 2 (Log.head m);
  Alcotest.(check int) "to_list length" 2 (List.length (Log.to_list m))

(* the log keeps nothing per delta on the OCaml heap, and decodes every
   entry back exactly *)
let test_log_compact () =
  let l = Log.create () in
  let n = 100_000 in
  let op i =
    if i mod 10 = 3 then Delta.Del { key = i }
    else
      Delta.Put
        {
          key = (if i mod 7 = 0 then -i else i * 1_000_003);
          color = (if i mod 2 = 0 then "red" else "U");
          payload = Printf.sprintf "%032d" i;
        }
  in
  for i = 1 to n do
    if Log.append l (op i) <> i then Alcotest.failf "append %d: wrong seq" i
  done;
  let words = Obj.reachable_words (Obj.repr l) in
  if words > 4096 then
    Alcotest.failf "%d deltas keep %d words on the OCaml heap" n words;
  for i = 1 to n do
    match Log.get l i with
    | Some d when d = { Delta.seq = i; op = op i } -> ()
    | _ -> Alcotest.failf "delta %d decoded wrong" i
  done;
  (* a payload larger than a whole chunk still round-trips *)
  let big = String.make ((1 lsl 20) + 5) 'b' in
  let s = Log.append l (Delta.Put { key = 1; color = "red"; payload = big }) in
  let s' = Log.append l (Delta.Del { key = 2 }) in
  (match (Log.get l s, Log.get l s') with
  | ( Some { Delta.op = Delta.Put { payload; _ }; _ },
      Some { Delta.op = Delta.Del { key = 2 }; _ } ) ->
    Alcotest.(check bool) "big payload" true (payload = big)
  | _ -> Alcotest.fail "big entry");
  Alcotest.(check int) "to_list" (n + 2) (List.length (Log.to_list l))

(* ------------------------------------------------------------------ *)
(* shipper wakeups, driven through socketpair peers registered directly *)

let peer () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (a, b)

let send_ack b seq =
  let s = Delta.render_ack seq in
  ignore (Unix.write_substring b s 0 (String.length s) : int)

(* Read the peer side until [needle] arrived; fails after [timeout]. *)
let await_bytes b ~timeout needle =
  let acc = Buffer.create 256 and buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  while
    (not (contains ~needle (Buffer.contents acc)))
    && Unix.gettimeofday () < deadline
  do
    match
      Unix.select [ b ] [] [] (Float.max 0.0 (deadline -. Unix.gettimeofday ()))
    with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read b buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.failf "shipper closed the link before %S" needle
      | n -> Buffer.add_subbytes acc buf 0 n)
  done;
  if not (contains ~needle (Buffer.contents acc)) then
    Alcotest.failf "no %S within %.2f s" needle timeout

(* Register [sync] peers and wait until each thread has said hello and
   gone to sleep. *)
let shipper_with ~sync n =
  let log = Log.create () in
  let hub = Shipper.create ~cluster:"wake-test" ~log () in
  let peers = List.init n (fun _ -> peer ()) in
  List.iter (fun (a, _) -> Shipper.register hub a ~sync ~from_seq:1) peers;
  List.iter (fun (_, b) -> await_bytes b ~timeout:5.0 "REPLOK 1\r\n") peers;
  Unix.sleepf 0.05;
  (log, hub, List.map snd peers)

let test_append_wakes_every_shipper () =
  let log, hub, peers = shipper_with ~sync:false 2 in
  let t0 = Unix.gettimeofday () in
  ignore (Log.append log (Delta.Del { key = 7 }) : int);
  List.iter (fun b -> await_bytes b ~timeout:1.0 "DDEL 1 7\r\n") peers;
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.05 then Alcotest.failf "append reached both peers after %.3f s" dt;
  List.iter (fun b -> send_ack b 1) peers;
  Shipper.drain hub ~timeout_s:5.0;
  List.iter Unix.close peers

let test_ack_wakes_fence () =
  let log, hub, peers = shipper_with ~sync:true 1 in
  let b = List.hd peers in
  let seq = Log.append log (Delta.Put { key = 1; color = "U"; payload = "x" }) in
  await_bytes b ~timeout:1.0 "DPUT 1 1 U 0 1\r\nx\r\n";
  let done_at = ref 0.0 and synced = ref false in
  let waiter =
    Thread.create
      (fun () ->
        synced := Shipper.wait_synced hub ~seq ~timeout_s:5.0;
        done_at := Unix.gettimeofday ())
      ()
  in
  Unix.sleepf 0.05;
  let acked_at = Unix.gettimeofday () in
  send_ack b seq;
  Thread.join waiter;
  Alcotest.(check bool) "fence passed" true !synced;
  let dt = !done_at -. acked_at in
  if dt > 0.05 then Alcotest.failf "fence released %.3f s after the ack" dt;
  Shipper.drain hub ~timeout_s:5.0;
  Unix.close b

(* No timed condition wait exists, so the deadline must still be noticed:
   a sync peer that never acks times the fence out, neither early nor
   unboundedly late. *)
let test_fence_times_out () =
  let log, hub, peers = shipper_with ~sync:true 1 in
  let seq = Log.append log (Delta.Del { key = 3 }) in
  let t0 = Unix.gettimeofday () in
  let c0 = Unix.times () in
  let synced = Shipper.wait_synced hub ~seq ~timeout_s:0.3 in
  let dt = Unix.gettimeofday () -. t0 in
  let c1 = Unix.times () in
  let cpu =
    c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime
    -. c0.Unix.tms_stime
  in
  Alcotest.(check bool) "timed out" false synced;
  if dt < 0.3 || dt > 1.0 then Alcotest.failf "timed out after %.3f s" dt;
  (* the waiter sleeps on a condition and the ship thread in a bounded
     select: a few wakeups, not a poll every half millisecond *)
  if cpu > 0.004 then
    Alcotest.failf "the 0.3 s fence wait burned %.1f ms of CPU" (cpu *. 1e3);
  (* drain gives up on the silent peer at its own deadline *)
  Shipper.drain hub ~timeout_s:0.2;
  List.iter Unix.close peers

(* ------------------------------------------------------------------ *)
(* end-to-end nodes over loopback TCP *)

(* one backend exec per shard, in shard order, so per-shard globals can
   be compared against per-shard oracles; [n_pools] are the parallel
   pools behind a `Parallel node, shut down by [drain_node] *)
type node = { n_srv : Server.t; n_execs : Exec.t list; n_pools : Parallel.t list }

let make_node ?replica_of ?(shards = 1) ~engine ~backend plan =
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let cells =
    Array.init shards (fun _ ->
        let n_exec, store, pool =
          match backend with
          | `Sim ->
            let pt = Pinterp.create ~engine plan in
            (pt.Pinterp.exec, Server.store_of_pinterp pt, None)
          | `Parallel ->
            let p = Parallel.create ~lanes:2 ~engine plan in
            (Parallel.exec p, Helpers.store_of_parallel p, Some p)
        in
        (match bnd.Server.b_init with
        | Some entry -> (
          match
            store.Server.st_call entry [ Rvalue.Int (Int64.of_int capacity) ]
          with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "%s: %s" entry m)
        | None -> ());
        (n_exec, store, pool))
  in
  let srv =
    Server.start ?replica_of
      { Server.default_config with Server.port = 0; shards; vsize }
      bnd
      (Array.map (fun (_, st, _) -> st) cells)
  in
  let cells = Array.to_list cells in
  {
    n_srv = srv;
    n_execs = List.map (fun (ex, _, _) -> ex) cells;
    n_pools = List.filter_map (fun (_, _, p) -> p) cells;
  }

let drain_node node =
  Server.drain node.n_srv;
  List.iter (fun p -> ignore (Parallel.shutdown p : bool)) node.n_pools

let attach ~sync node pport =
  let apply (d : Delta.t) =
    match d.Delta.op with
    | Delta.Put { key; payload; _ } ->
      Server.apply_put node.n_srv ~seq:d.Delta.seq ~key ~payload
    | Delta.Del { key } -> Server.apply_del node.n_srv ~seq:d.Delta.seq ~key
  in
  Replica.start ~sync ~host:"127.0.0.1" ~port:pport ~apply ()

(* a minimal blocking client (test_server has its own copy; kept local
   so this file stands alone) *)
type client = { fd : Unix.file_descr; rd : Protocol.resp_reader }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; rd = Protocol.resp_reader () }

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

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

let rpc c req =
  send_all c.fd (Protocol.render_request req);
  match read_responses c 1 with
  | [ r ] -> r
  | _ -> Alcotest.fail "rpc: no response"

(* ------------------------------------------------------------------ *)
(* convergence: replica globals bit-equal an oracle replaying the log *)

(* The oracle repeats a replica shard's exact allocation history on a
   fresh simulated backend: init, then the server's vbuf/obuf
   allocations, then one b_set/b_del call per logged delta owned by that
   shard (key mod shards, in merged-sequence order) with the server's
   zero-padding. Any divergence in how a replica applied the stream
   shows up as a bit difference in some integer global. *)
let oracle_replay_shard ~engine ~mode ~shards ~shard src log =
  let plan = plan_of ~mode src in
  let pt = Pinterp.create ~engine plan in
  let store = Server.store_of_pinterp pt in
  let bnd = Option.get (Server.bindings_of_plan plan) in
  (match bnd.Server.b_init with
  | Some entry -> (
    match store.Server.st_call entry [ Rvalue.Int (Int64.of_int capacity) ] with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "oracle %s: %s" entry m)
  | None -> ());
  let vbuf = store.Server.st_alloc (max 1 vsize) in
  let _obuf = store.Server.st_alloc (max 1 vsize) in
  List.iter
    (fun (d : Delta.t) ->
      let apply key f = if key mod shards = shard then f () in
      match d.Delta.op with
      | Delta.Put { key; payload; _ } ->
        apply key (fun () ->
            let padded =
              if String.length payload >= vsize then payload
              else payload ^ String.make (vsize - String.length payload) '\000'
            in
            store.Server.st_write vbuf padded;
            match
              store.Server.st_call bnd.Server.b_set
                [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr vbuf ]
            with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "oracle set: %s" m)
      | Delta.Del { key } -> (
        match bnd.Server.b_del with
        | None -> Alcotest.fail "oracle: del delta for a del-less family"
        | Some del ->
          apply key (fun () ->
              match
                store.Server.st_call del [ Rvalue.Int (Int64.of_int key) ]
              with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "oracle del: %s" m)))
    (Log.to_list log);
  (plan, pt)

let converge_cell ?(shards = 1) ~mode ~backend ~engine src () =
  let plan_p = plan_of ~mode src in
  let has_del =
    (Option.get (Server.bindings_of_plan plan_p)).Server.b_del <> None
  in
  let primary = make_node ~shards ~engine ~backend plan_p in
  let pport = Server.port primary.n_srv in
  (* one sync and one async replica per cell *)
  let reps =
    List.map
      (fun sync ->
        let plan = plan_of ~mode src in
        let node =
          make_node
            ~replica_of:(Printf.sprintf "127.0.0.1:%d" pport)
            ~shards ~engine ~backend plan
        in
        (node, attach ~sync node pport, plan))
      [ true; false ]
  in
  (* a deterministic write-heavy mix; gets on the primary perturb its
     own LRU state, which is exactly why the oracle — not the primary —
     is the reference *)
  let c = connect pport in
  for i = 0 to 119 do
    let key = i mod 40 in
    let req =
      if has_del && i mod 7 = 3 then Protocol.Del key
      else if i mod 5 = 4 then Protocol.Get key
      else
        Protocol.Set (key, Printf.sprintf "v%03d%s" i (String.make (i mod 20) 'x'))
    in
    ignore (rpc c req)
  done;
  Unix.close c.fd;
  (* drain ships the log tail and closes the replica links *)
  drain_node primary;
  let log = Server.repl_log primary.n_srv in
  Alcotest.(check bool) "log is non-empty" true (Log.head log > 0);
  (* one oracle per shard, each replaying its slice of the merged log *)
  let wants =
    List.init shards (fun shard ->
        let oplan, opt =
          oracle_replay_shard ~engine ~mode ~shards ~shard src log
        in
        let names = int_globals oplan.Privagic_partition.Plan.pmodule in
        Alcotest.(check bool) "program has integer globals" true (names <> []);
        read_globals opt.Pinterp.exec names)
  in
  List.iter
    (fun ((node, client, plan), sync) ->
      let tag = if sync then "sync" else "async" in
      Alcotest.(check bool) (tag ^ " link closed") true
        (Replica.wait_lost client ~timeout_s:10.0);
      Alcotest.(check int)
        (tag ^ " applied the whole log")
        (Log.head log) (Replica.applied_seq client);
      Replica.stop client;
      let names = int_globals plan.Privagic_partition.Plan.pmodule in
      List.iteri
        (fun shard (want, ex) ->
          let got = read_globals ex names in
          Alcotest.(check (list (pair string int64)))
            (Printf.sprintf "%s replica shard %d globals bit-equal the oracle"
               tag shard)
            want got)
        (List.combine wants node.n_execs);
      drain_node node)
    (List.combine reps [ true; false ])

let convergence_cases =
  let fam name ?(mode = Mode.Hardened) src =
    List.concat_map
      (fun (ename, engine) ->
        [ Alcotest.test_case
            (Printf.sprintf "converge: %s, sim, %s engine" name ename)
            `Quick
            (converge_cell ~mode ~backend:`Sim ~engine src);
          Alcotest.test_case
            (Printf.sprintf "converge: %s, sim, %s engine, 3 shards" name
               ename)
            `Quick
            (converge_cell ~shards:3 ~mode ~backend:`Sim ~engine src) ])
      [ ("walk", Exec.Walk); ("image", Exec.Image) ]
  in
  List.concat
    [ fam "memcached" (Programs.memcached ~nbuckets:64 ~vsize `Colored);
      fam "hashmap" (Programs.hashmap ~nbuckets:64 ~vsize `Colored);
      fam "hashmap-2color" ~mode:Mode.Relaxed
        (Programs.hashmap_two_color ~nbuckets:64 ~vsize `Colored);
      fam "treemap" (Programs.rbtree ~vsize `Colored);
      fam "linked-list" (Programs.linked_list ~vsize `Colored);
      [ Alcotest.test_case "converge: memcached, parallel backend" `Quick
          (converge_cell ~mode:Mode.Hardened ~backend:`Parallel
             ~engine:(Exec.default_engine ())
             (Programs.memcached ~nbuckets:64 ~vsize `Colored));
        Alcotest.test_case "converge: memcached, parallel backend, 2 shards"
          `Quick
          (converge_cell ~shards:2 ~mode:Mode.Hardened ~backend:`Parallel
             ~engine:(Exec.default_engine ())
             (Programs.memcached ~nbuckets:64 ~vsize `Colored)) ] ]

(* ------------------------------------------------------------------ *)
(* the transport rule, as a trace property over captured wire bytes *)

let wire_capture variant expect_sealed () =
  let src = Programs.memcached ~nbuckets:64 ~vsize variant in
  let plan = plan_of src in
  let primary = make_node ~engine:(Exec.default_engine ()) ~backend:`Sim plan in
  let pport = Server.port primary.n_srv in
  (* a bare socket standing in for a replica: hello, then just record
     every byte the primary ships *)
  let rfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect rfd (Unix.ADDR_INET (Unix.inet_addr_loopback, pport));
  send_all rfd (Delta.render_hello ~sync:false ~from_seq:1);
  let c = connect pport in
  let secret i = Printf.sprintf "TOPSECRETPAYLOAD%04d" i in
  for i = 0 to 9 do
    match rpc c (Protocol.Set (i, secret i)) with
    | Protocol.Stored -> ()
    | _ -> Alcotest.fail "set failed"
  done;
  let raw = Buffer.create 4096 in
  let rd = Delta.reader () in
  let frames = ref [] in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while List.length !frames < 11 && Unix.gettimeofday () < deadline do
    match Unix.select [ rfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read rfd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "primary closed the replication link"
      | n ->
        Buffer.add_subbytes raw buf 0 n;
        frames := !frames @ Delta.feed rd buf n)
  done;
  (match !frames with
  | Delta.Ok_hello 1 :: rest when List.length rest = 10 ->
    let key = Seal.derive ~cluster:"privagic" (Server.value_color plan) in
    List.iteri
      (fun i f ->
        match f with
        | Delta.Frame { d = { Delta.seq; op = Delta.Put { key = k; payload; _ } }; sealed } ->
          Alcotest.(check int) "stream seq" (i + 1) seq;
          Alcotest.(check int) "stream key" i k;
          Alcotest.(check bool) "sealed flag" expect_sealed sealed;
          if expect_sealed then (
            match Seal.unseal ~key ~nonce:seq payload with
            | Ok p -> Alcotest.(check string) "unseals to the value" (secret i) p
            | Error e -> Alcotest.failf "replica-side unseal: %s" e)
          else Alcotest.(check string) "plaintext value" (secret i) payload
        | _ -> Alcotest.fail "unexpected frame")
      rest
  | l -> Alcotest.failf "bad stream (%d frames)" (List.length l));
  let captured = Buffer.contents raw in
  if expect_sealed then
    Alcotest.(check bool) "no secret plaintext on the wire" false
      (contains ~needle:"TOPSECRET" captured)
  else
    Alcotest.(check bool) "plain program ships plaintext" true
      (contains ~needle:"TOPSECRET" captured);
  Unix.close rfd;
  Unix.close c.fd;
  Server.drain primary.n_srv

(* ------------------------------------------------------------------ *)
(* sync fencing (read-your-writes on the replica) and promotion *)

let test_sync_ryw_and_promotion () =
  let src = Programs.memcached ~nbuckets:64 ~vsize `Colored in
  let engine = Exec.default_engine () in
  let primary = make_node ~engine ~backend:`Sim (plan_of src) in
  let pport = Server.port primary.n_srv in
  let rplan = plan_of src in
  let rnode =
    make_node ~replica_of:(Printf.sprintf "127.0.0.1:%d" pport) ~engine
      ~backend:`Sim rplan
  in
  let client = attach ~sync:true rnode pport in
  (* wait for the sync link to register before writing, so every write
     below is fenced *)
  let hub = Server.repl_hub primary.n_srv in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Shipper.sync_connected hub < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "sync replica registered" 1 (Shipper.sync_connected hub);
  let pc = connect pport in
  let rc = connect (Server.port rnode.n_srv) in
  (* a replica refuses client writes *)
  (match rpc rc (Protocol.Set (1, "nope")) with
  | Protocol.Error_msg _ -> ()
  | _ -> Alcotest.fail "replica accepted a client write");
  Alcotest.(check bool) "replica role" true (Server.is_replica rnode.n_srv);
  (* read-your-writes: once the primary answered STORED, the sync fence
     guarantees the replica already applied *)
  for k = 0 to 19 do
    let v = Printf.sprintf "fenced%02d" k in
    (match rpc pc (Protocol.Set (k, v)) with
    | Protocol.Stored -> ()
    | _ -> Alcotest.fail "set failed");
    match rpc rc (Protocol.Get k) with
    | Protocol.Value (k', v') when k' = k && v' = v -> ()
    | r ->
      Alcotest.failf "replica read after fenced write: %s"
        (String.trim (Protocol.render r))
  done;
  let st = Server.stats primary.n_srv in
  Alcotest.(check string) "primary role" "primary" st.Server.s_role;
  Alcotest.(check int) "one replica connected" 1 st.Server.s_replicas;
  Alcotest.(check int) "no fence timeouts" 0 st.Server.s_fence_timeouts;
  Alcotest.(check bool) "stats verb reports the role" true
    (List.mem_assoc "role" (Server.stats_fields primary.n_srv));
  (* drain the primary; the replica notices and (the harness wiring)
     promotes *)
  Unix.close pc.fd;
  let promoted = ref false in
  let t = Thread.create (fun () ->
      if Replica.wait_lost client ~timeout_s:10.0 then begin
        Server.promote rnode.n_srv;
        promoted := true
      end) ()
  in
  Server.drain primary.n_srv;
  Thread.join t;
  Alcotest.(check bool) "link lost after the drain" true !promoted;
  Replica.stop client;
  Alcotest.(check string) "promoted role" "primary" (Server.role_name rnode.n_srv);
  (* the promoted replica serves writes and kept the replicated data *)
  (match rpc rc (Protocol.Set (40, "after")) with
  | Protocol.Stored -> ()
  | _ -> Alcotest.fail "promoted replica refused a write");
  (match rpc rc (Protocol.Get 40) with
  | Protocol.Value (40, "after") -> ()
  | _ -> Alcotest.fail "promoted write lost");
  (match rpc rc (Protocol.Get 5) with
  | Protocol.Value (5, "fenced05") -> ()
  | _ -> Alcotest.fail "replicated data lost at promotion");
  Unix.close rc.fd;
  Server.drain rnode.n_srv

(* ------------------------------------------------------------------ *)
(* the replica apply path rejects stream gaps *)

let test_apply_gap () =
  let src = Programs.memcached ~nbuckets:64 ~vsize `Colored in
  let node =
    make_node ~replica_of:"127.0.0.1:1" ~engine:(Exec.default_engine ())
      ~backend:`Sim (plan_of src)
  in
  let put seq =
    Server.apply_put node.n_srv ~seq ~key:seq ~payload:"x"
  in
  (match put 2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gap accepted");
  (match put 1 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "first delta: %s" m);
  (match put 1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "replay accepted");
  (match put 2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "second delta: %s" m);
  (match Server.apply_del node.n_srv ~seq:4 ~key:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "del gap accepted");
  (* a delete of an absent key still mirrors: numbering stays dense *)
  (match Server.apply_del node.n_srv ~seq:3 ~key:99 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "miss del: %s" m);
  Alcotest.(check int) "mirrored log head" 3
    (Log.head (Server.repl_log node.n_srv));
  let st = Server.stats node.n_srv in
  Alcotest.(check int) "applied counter" 3 st.Server.s_applied;
  Server.drain node.n_srv

let suite =
  [ Alcotest.test_case "seal model" `Quick test_seal;
    Alcotest.test_case "delta codec" `Quick test_delta_codec;
    Alcotest.test_case "commit log" `Quick test_log;
    Alcotest.test_case "commit log: compact, off the OCaml heap" `Quick
      test_log_compact;
    Alcotest.test_case "shipper: one append wakes every peer" `Quick
      test_append_wakes_every_shipper;
    Alcotest.test_case "shipper: an ack releases the fence" `Quick
      test_ack_wakes_fence;
    Alcotest.test_case "shipper: a silent sync peer times the fence out"
      `Quick test_fence_times_out;
    Alcotest.test_case "wire: colored payloads sealed" `Quick
      (wire_capture `Colored true);
    Alcotest.test_case "wire: plain payloads unsealed" `Quick
      (wire_capture `Plain false);
    Alcotest.test_case "sync read-your-writes, promotion" `Quick
      test_sync_ryw_and_promotion;
    Alcotest.test_case "apply rejects stream gaps" `Quick test_apply_gap ]
  @ convergence_cases
