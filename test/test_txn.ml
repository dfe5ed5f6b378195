(* The transaction subsystem (lib/txn): snapshot-read multi-key RMW
   transactions with first-writer-wins CAS guards, the color-inheriting
   secondary indexes, and range scans — from pure semantics over a mock
   store up to the full serving stack: a differential transcript over
   {walk,image} x {1 shard, sharded}, replica convergence of versions and
   indexes, a socket roundtrip of every new verb, the indexed-accounts
   example on both engines, and the YCSB-E/F load-generator mixes
   followed by guarded transactions with exact commit/abort counts. *)

module Txn = Privagic_txn.Txn
module Index = Privagic_txn.Index
module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Programs = Privagic_workloads.Programs
module Ycsb = Privagic_workloads.Ycsb
module Mode = Privagic_secure.Mode
module Delta = Privagic_replication.Delta
module Replica = Privagic_replication.Replica
module Loadgen = Privagic_loadgen.Loadgen
open Privagic_vm

let vsize = 32
let capacity = 512

let plan_of ?(mode = Mode.Hardened) src =
  let m = Privagic_minic.Driver.compile ~file:"txn.mc" src in
  let infer = Privagic_secure.Infer.run ~mode m in
  Alcotest.(check bool) "program accepted" true (Privagic_secure.Infer.ok infer);
  let plan = Privagic_partition.Plan.build ~mode infer in
  Alcotest.(check bool) "plan ok" true (Privagic_partition.Plan.ok plan);
  plan

(* ------------------------------------------------------------------ *)
(* pure transaction semantics over a mock store *)

let mock_store ?(max_value = max_int) ?(can_del = true) () =
  let h : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let ops =
    {
      Txn.o_get = (fun k -> Ok (Hashtbl.find_opt h k));
      o_set =
        (fun k v ->
          Hashtbl.replace h k v;
          Ok ());
      o_del =
        (fun k ->
          let had = Hashtbl.mem h k in
          Hashtbl.remove h k;
          Ok had);
      o_max_value = max_value;
      o_can_del = can_del;
    }
  in
  (h, ops)

let test_execute_pure () =
  let h, ops = mock_store () in
  let t = Txn.create ~value_color:Index.unprotected_color () in
  Alcotest.(check int) "fresh key at version 0" 0 (Txn.version t 1);
  (* a committed multi-op txn: reads see the txn's own buffered writes,
     cas expect=0 inserts, del of an absent key is NOT_FOUND *)
  (match
     Txn.execute t ops
       [ Txn.T_set (1, "a"); Txn.T_get 1; Txn.T_cas (2, 0, "b");
         Txn.T_get 2; Txn.T_del 3 ]
   with
  | Txn.Committed (results, writes) ->
    (match results with
    | [ Txn.R_stored; Txn.R_value (Some "a"); Txn.R_stored;
        Txn.R_value (Some "b"); Txn.R_not_found ] -> ()
    | _ -> Alcotest.fail "unexpected per-op results");
    (match writes with
    | [ Txn.W_put { w_key = 1; w_value = "a" };
        Txn.W_put { w_key = 2; w_value = "b" } ] -> ()
    | _ -> Alcotest.failf "unexpected write batch (%d writes)"
             (List.length writes))
  | _ -> Alcotest.fail "txn 1 did not commit");
  Alcotest.(check int) "key 1 at version 1" 1 (Txn.version t 1);
  Alcotest.(check int) "key 2 at version 1" 1 (Txn.version t 2);
  Alcotest.(check int) "key 3 untouched" 0 (Txn.version t 3);
  Alcotest.(check (option string)) "store holds a" (Some "a")
    (Hashtbl.find_opt h 1);
  (* a lost CAS guard aborts with the guard's evidence *)
  (match Txn.execute t ops [ Txn.T_cas (1, 5, "x") ] with
  | Txn.Aborted { a_key = 1; a_expected = 5; a_found = 1 } -> ()
  | _ -> Alcotest.fail "stale cas not aborted");
  (* atomicity: an abort leaves earlier ops of the same txn unapplied *)
  (match Txn.execute t ops [ Txn.T_set (1, "zz"); Txn.T_cas (2, 9, "y") ] with
  | Txn.Aborted { a_key = 2; a_expected = 9; a_found = 1 } -> ()
  | _ -> Alcotest.fail "guarded txn not aborted");
  Alcotest.(check (option string)) "abort applied nothing" (Some "a")
    (Hashtbl.find_opt h 1);
  Alcotest.(check int) "abort bumped no version" 1 (Txn.version t 1);
  (* first-writer-wins: the correct version commits and bumps *)
  (match Txn.execute t ops [ Txn.T_cas (1, 1, "a2") ] with
  | Txn.Committed ([ Txn.R_stored ], [ Txn.W_put { w_key = 1; w_value = "a2" } ])
    -> ()
  | _ -> Alcotest.fail "in-version cas did not commit");
  Alcotest.(check int) "cas bumped the version" 2 (Txn.version t 1);
  (* a committed del bumps too, and emits a W_del *)
  (match Txn.execute t ops [ Txn.T_del 2 ] with
  | Txn.Committed ([ Txn.R_deleted ], [ Txn.W_del { w_key = 2 } ]) -> ()
  | _ -> Alcotest.fail "del did not commit");
  Alcotest.(check int) "del bumped the version" 2 (Txn.version t 2);
  Alcotest.(check bool) "del removed the key" false (Hashtbl.mem h 2);
  (* non-transactional commit hooks advance the same version space *)
  Txn.note_put t ~key:9 ~value:"v9";
  Txn.note_put t ~key:9 ~value:"v9b";
  Txn.note_del t ~key:9;
  Alcotest.(check int) "note hooks bump versions" 3 (Txn.version t 9);
  Alcotest.(check int) "commits counted" 3 (Txn.commits t);
  Alcotest.(check int) "aborts counted" 2 (Txn.aborts t)

(* An inapplicable write — an oversize value, a del without a del entry
   — must fail the whole transaction during validation: nothing reaches
   the store, no version bumps, and [f_applied] is empty. This is the
   atomicity guarantee for doomed transactions; without the phase-1
   gate, a txn [set small; set oversize] would commit its prefix and
   then report failure. *)
let test_execute_applicability () =
  let h, ops = mock_store ~max_value:4 () in
  let t = Txn.create ~value_color:Index.unprotected_color () in
  (match Txn.execute t ops [ Txn.T_set (1, "ok"); Txn.T_set (2, "toolarge") ] with
  | Txn.Failed { f_applied = []; _ } -> ()
  | Txn.Failed _ -> Alcotest.fail "oversize txn applied a prefix"
  | _ -> Alcotest.fail "oversize txn did not fail");
  Alcotest.(check int) "oversize txn left the store empty" 0
    (Hashtbl.length h);
  Alcotest.(check int) "oversize txn bumped no version" 0 (Txn.version t 1);
  (* the same gate guards the CAS value *)
  (match Txn.execute t ops [ Txn.T_cas (1, 0, "toolarge") ] with
  | Txn.Failed { f_applied = []; _ } -> ()
  | _ -> Alcotest.fail "oversize cas did not fail cleanly");
  (* a guard that loses still reports Aborted, not Failed *)
  (match Txn.execute t ops [ Txn.T_cas (1, 7, "toolarge") ] with
  | Txn.Aborted { a_key = 1; a_expected = 7; a_found = 0 } -> ()
  | _ -> Alcotest.fail "lost guard outranks the size check");
  (* del on a del-less store: only a del that would reach the store
     fails; del of an absent key stays NOT_FOUND *)
  let h2, ops2 = mock_store ~can_del:false () in
  let t2 = Txn.create ~value_color:Index.unprotected_color () in
  (match Txn.execute t2 ops2 [ Txn.T_del 5 ] with
  | Txn.Committed ([ Txn.R_not_found ], []) -> ()
  | _ -> Alcotest.fail "absent-key del should commit as NOT_FOUND");
  (match Txn.execute t2 ops2 [ Txn.T_set (5, "v"); Txn.T_del 5 ] with
  | Txn.Failed { f_applied = []; _ } -> ()
  | _ -> Alcotest.fail "del-less txn did not fail cleanly");
  Alcotest.(check int) "failed del-less txn applied nothing" 0
    (Hashtbl.length h2);
  Alcotest.(check int) "failed del-less txn bumped no version" 0
    (Txn.version t2 5);
  Alcotest.(check int) "only the NOT_FOUND txn committed" 1 (Txn.commits t2)

(* ------------------------------------------------------------------ *)
(* the color-inheritance rule of the index *)

let test_index_color_rule () =
  let ix = Index.create () in
  (* a secret-colored value: the index keeps (key, version, len) only,
     whatever the caller passes as value bytes *)
  Index.put ix ~key:5 ~version:1 ~len:3 ~color:"red" ~value:(Some "abc");
  (match Index.find ix 5 with
  | Some { Index.e_color = "red"; e_value = None; e_len = 3; e_version = 1; _ }
    -> ()
  | _ -> Alcotest.fail "secret entry leaked value bytes");
  Alcotest.(check int) "no reverse lookup for secrets" 0
    (List.length (Index.lookup ix "abc"));
  (* an unprotected value is cached and reverse-indexed *)
  Index.put ix ~key:6 ~version:1 ~len:3 ~color:Index.unprotected_color
    ~value:(Some "abc");
  (match Index.lookup ix "abc" with
  | [ { Index.e_key = 6; e_value = Some "abc"; _ } ] -> ()
  | _ -> Alcotest.fail "unprotected value not reverse-indexed");
  (* a range over both shows value bytes only for the "U" entry *)
  (match Index.range ix ~start:0 ~stop:10 ~limit:10 with
  | [ { Index.e_key = 5; e_value = None; _ };
      { Index.e_key = 6; e_value = Some "abc"; _ } ] -> ()
  | l -> Alcotest.failf "unexpected range (%d entries)" (List.length l));
  (* overwrite remaps the fingerprint *)
  Index.put ix ~key:6 ~version:2 ~len:3 ~color:Index.unprotected_color
    ~value:(Some "xyz");
  Alcotest.(check int) "old fingerprint unmapped" 0
    (List.length (Index.lookup ix "abc"));
  (match Index.lookup ix "xyz" with
  | [ { Index.e_key = 6; e_version = 2; _ } ] -> ()
  | _ -> Alcotest.fail "new fingerprint not mapped");
  Index.del ix ~key:6;
  Alcotest.(check int) "deleted key left the hash index" 0
    (List.length (Index.lookup ix "xyz"));
  Alcotest.(check int) "deleted key left the ordered index" 1
    (List.length (Index.range ix ~start:0 ~stop:10 ~limit:10));
  (* the extreme key is not an in-band sentinel of the range walk: an
     entry at max_int is still scannable *)
  Index.put ix ~key:max_int ~version:1 ~len:2 ~color:Index.unprotected_color
    ~value:(Some "mx");
  (match Index.range ix ~start:max_int ~stop:max_int ~limit:4 with
  | [ { Index.e_key = k; e_value = Some "mx"; _ } ] when k = max_int -> ()
  | l -> Alcotest.failf "max_int entry not scanned (%d entries)"
           (List.length l));
  Index.del ix ~key:max_int;
  (* the same rule through the txn layer: a secret store scans key-only
     and is unreachable by value *)
  let t = Txn.create ~value_color:"blue" () in
  Txn.note_put t ~key:1 ~value:"secret-bytes";
  (match Txn.scan t ~start:0 ~stop:10 ~limit:10 with
  | [ { Index.e_key = 1; e_value = None; e_color = "blue"; _ } ] -> ()
  | _ -> Alcotest.fail "secret scan entry carried bytes");
  Alcotest.(check int) "secret store has no value lookup" 0
    (List.length (Txn.lookup t ~value:"secret-bytes"))

(* ------------------------------------------------------------------ *)
(* range scans against a reference model *)

let test_range_oracle () =
  let t = Txn.create ~value_color:Index.unprotected_color () in
  let model : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  let versions : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump k =
    let v = 1 + (try Hashtbl.find versions k with Not_found -> 0) in
    Hashtbl.replace versions k v;
    v
  in
  let rng = Ycsb.rng 0x5ca9 in
  for i = 1 to 300 do
    let k = Ycsb.next_int rng 100 in
    if Ycsb.next_int rng 4 < 3 then begin
      let v = Printf.sprintf "v%d-%d" k i in
      Txn.note_put t ~key:k ~value:v;
      Hashtbl.replace model k (bump k, v)
    end
    else if Hashtbl.mem model k then begin
      Txn.note_del t ~key:k;
      ignore (bump k : int);
      Hashtbl.remove model k
    end
  done;
  let reference ~start ~stop ~limit =
    let live =
      Hashtbl.fold
        (fun k (ver, v) acc ->
          if k >= start && k <= stop then (k, ver, v) :: acc else acc)
        model []
    in
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) live in
    List.filteri (fun i _ -> i < limit) sorted
  in
  for _ = 1 to 50 do
    let start = Ycsb.next_int rng 100 in
    let stop = start + Ycsb.next_int rng 40 in
    let limit = 1 + Ycsb.next_int rng 12 in
    let got =
      List.map
        (fun (e : Index.entry) ->
          match e.Index.e_value with
          | Some v -> (e.Index.e_key, e.Index.e_version, v)
          | None -> Alcotest.fail "unprotected entry without bytes")
        (Txn.scan t ~start ~stop ~limit)
    in
    let want = reference ~start ~stop ~limit in
    if got <> want then
      Alcotest.failf "scan [%d,%d] limit %d diverged from the model" start
        stop limit
  done

(* ------------------------------------------------------------------ *)
(* serving-stack helpers (local copies; test_server has its own) *)

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
  send_all c (Protocol.render_request req);
  match read_responses c 1 with
  | [ r ] -> r
  | _ -> Alcotest.fail "rpc: no response"

let start_server ?replica_of ?(shards = 1) ~engine plan =
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let stores =
    Array.init shards (fun _ ->
        let store = Server.store_of_pinterp (Pinterp.create ~engine plan) in
        (match bnd.Server.b_init with
        | Some entry -> (
          match
            store.Server.st_call entry [ Rvalue.Int (Int64.of_int capacity) ]
          with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "%s: %s" entry m)
        | None -> ());
        store)
  in
  Server.start ?replica_of
    { Server.default_config with Server.port = 0; shards; vsize }
    bnd stores

(* ------------------------------------------------------------------ *)
(* differential transcripts: the same deterministic client session must
   render bit-equal response streams on every engine x shards cell *)

(* One closed-loop session exercising every verb. CAS versions are read
   back through getv on the same connection, so success and conflict
   paths are both deterministic. Returns the concatenated rendered
   responses. *)
let session port =
  let c = connect port in
  let out = Buffer.create 4096 in
  let ask req = Buffer.add_string out (Protocol.render (rpc c req)) in
  let rng = Ycsb.rng 0x7a11 in
  for i = 0 to 159 do
    let k = Ycsb.next_int rng 24 in
    match i mod 8 with
    | 0 | 1 -> ask (Protocol.Set (k, Ycsb.value_for ~size:(6 + (i mod 20)) k))
    | 2 -> ask (Protocol.Getv k)
    | 3 ->
      (* read the live version, then guard on it (commit) or on a
         stale one (conflict), alternating *)
      let ver =
        match rpc c (Protocol.Getv k) with
        | Protocol.Version { v_ver; _ } -> v_ver
        | r -> Alcotest.failf "getv: %s" (Protocol.render r)
      in
      let guard = if i mod 16 < 8 then ver else ver + 7 in
      ask
        (Protocol.Cas
           { c_key = k; c_ver = guard; c_val = Ycsb.value_for ~size:9 k })
    | 4 ->
      ask
        (Protocol.Scan
           { sc_start = k; sc_stop = k + 12; sc_limit = 1 + (i mod 6) })
    | 5 ->
      let ver =
        match rpc c (Protocol.Getv k) with
        | Protocol.Version { v_ver; _ } -> v_ver
        | r -> Alcotest.failf "getv: %s" (Protocol.render r)
      in
      let guard = if i mod 16 < 8 then ver else ver + 3 in
      ask
        (Protocol.Txn
           [ Txn.T_get k; Txn.T_cas (k, guard, Ycsb.value_for ~size:8 k);
             Txn.T_set ((k + 1) mod 24, Ycsb.value_for ~size:7 (k + 1));
             Txn.T_del ((k + 5) mod 24) ])
    | 6 -> ask (Protocol.Del k)
    | _ -> ask (Protocol.Get k)
  done;
  Unix.close c.fd;
  Buffer.contents out

let test_differential_cells () =
  (* engine x shards; the sharded cells route the session's multi-key
     transactions through the cross-shard 2PC path, and their transcripts
     must still be bit-equal to the unsharded oracle *)
  let cells =
    [ (Exec.Walk, 1); (Exec.Image, 1); (Exec.Walk, 3); (Exec.Image, 2) ]
  in
  let transcripts =
    List.map
      (fun (engine, shards) ->
        let srv =
          start_server ~engine ~shards
            (plan_of (Programs.memcached ~nbuckets:64 ~vsize `Colored))
        in
        let t = session (Server.port srv) in
        let s = Server.stats srv in
        Server.drain srv;
        Alcotest.(check bool) "cell served txns" true (s.Server.s_txns > 0);
        Alcotest.(check bool) "cell served scans" true (s.Server.s_scans > 0);
        Alcotest.(check bool) "cell committed and aborted" true
          (s.Server.s_txn_commits > 0 && s.Server.s_txn_aborts > 0);
        if shards > 1 then
          Alcotest.(check bool) "sharded cell crossed shards" true
            (s.Server.s_xshard > 0);
        ( Printf.sprintf "%s/%d" (Exec.engine_name engine) shards,
          t ))
      cells
  in
  match transcripts with
  | (_, first) :: rest ->
    List.iter
      (fun (cell, t) ->
        if t <> first then
          Alcotest.failf "cell %s diverged from the walk/1 transcript" cell)
      rest
  | [] -> Alcotest.fail "no cells ran"

(* ------------------------------------------------------------------ *)
(* replica convergence: versions and indexes, not only value bytes *)

let test_replica_convergence () =
  let src = Programs.memcached ~nbuckets:64 ~vsize `Colored in
  let primary =
    start_server ~engine:(Exec.default_engine ()) (plan_of src)
  in
  let pport = Server.port primary in
  let replica =
    start_server
      ~replica_of:(Printf.sprintf "127.0.0.1:%d" pport)
      ~engine:(Exec.default_engine ()) (plan_of src)
  in
  let apply (d : Delta.t) =
    match d.Delta.op with
    | Delta.Put { key; payload; _ } ->
      Server.apply_put replica ~seq:d.Delta.seq ~key ~payload
    | Delta.Del { key } -> Server.apply_del replica ~seq:d.Delta.seq ~key
  in
  let link = Replica.start ~sync:true ~host:"127.0.0.1" ~port:pport ~apply () in
  (* writes through every commit path: set, cas, txn batch, del *)
  let c = connect pport in
  let expect_stored r =
    match r with
    | Protocol.Stored -> ()
    | r -> Alcotest.failf "write failed: %s" (Protocol.render r)
  in
  for k = 0 to 15 do
    expect_stored (rpc c (Protocol.Set (k, Printf.sprintf "base-%02d" k)))
  done;
  expect_stored
    (rpc c (Protocol.Cas { c_key = 3; c_ver = 1; c_val = "cas-upd" }));
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_cas (4, 1, "txn-upd"); Txn.T_set (20, "txn-new");
            Txn.T_del 5 ])
   with
  | Protocol.Txn_reply _ -> ()
  | r -> Alcotest.failf "txn failed: %s" (Protocol.render r));
  (match rpc c (Protocol.Del 6) with
  | Protocol.Deleted -> ()
  | r -> Alcotest.failf "del failed: %s" (Protocol.render r));
  (* wait until the replica applied the whole log *)
  let want_seq = (Server.stats primary).Server.s_repl_seq in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Server.stats replica).Server.s_repl_seq < want_seq
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.02
  done;
  Alcotest.(check int) "replica applied the whole log" want_seq
    (Server.stats replica).Server.s_repl_seq;
  (* the replica must answer getv and scan exactly like the primary *)
  let cr = connect (Server.port replica) in
  let probe cl =
    let out = Buffer.create 1024 in
    for k = 0 to 21 do
      Buffer.add_string out (Protocol.render (rpc cl (Protocol.Getv k)))
    done;
    Buffer.add_string out
      (Protocol.render
         (rpc cl (Protocol.Scan { sc_start = 0; sc_stop = 30; sc_limit = 30 })));
    Buffer.contents out
  in
  let pt = probe c and rt = probe cr in
  Alcotest.(check string) "versions and index converged" pt rt;
  Replica.stop link;
  Unix.close c.fd;
  Unix.close cr.fd;
  Server.drain replica;
  Server.drain primary

(* ------------------------------------------------------------------ *)
(* socket roundtrip of every verb, on an unprotected plan so scans carry
   value bytes (SVAL) and the hash index is reachable *)

let test_socket_roundtrip () =
  let srv =
    start_server ~engine:(Exec.default_engine ())
      (plan_of (Programs.memcached ~nbuckets:64 ~vsize `Plain))
  in
  let c = connect (Server.port srv) in
  let check name want got =
    if got <> want then
      Alcotest.failf "%s: got %s, want %s" name (Protocol.render got)
        (Protocol.render want)
  in
  check "set" Protocol.Stored (rpc c (Protocol.Set (1, "alpha")));
  check "getv carries version and bytes"
    (Protocol.Version { v_key = 1; v_ver = 1; v_val = Some "alpha" })
    (rpc c (Protocol.Getv 1));
  check "getv miss"
    (Protocol.Version { v_key = 8; v_ver = 0; v_val = None })
    (rpc c (Protocol.Getv 8));
  check "stale cas conflicts" (Protocol.Cas_conflict 1)
    (rpc c (Protocol.Cas { c_key = 1; c_ver = 9; c_val = "x" }));
  check "fresh cas stores" Protocol.Stored
    (rpc c (Protocol.Cas { c_key = 1; c_ver = 1; c_val = "beta" }));
  check "cas expect-0 inserts" Protocol.Stored
    (rpc c (Protocol.Cas { c_key = 5; c_ver = 0; c_val = "ins" }));
  check "cas on absent key" Protocol.Not_found
    (rpc c (Protocol.Cas { c_key = 6; c_ver = 3; c_val = "x" }));
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_get 1; Txn.T_set (2, "two"); Txn.T_cas (5, 1, "upd");
            Txn.T_del 9; Txn.T_get 2 ])
   with
  | Protocol.Txn_reply
      [ Protocol.R_value (Some "beta"); Protocol.R_stored; Protocol.R_stored;
        Protocol.R_not_found; Protocol.R_value (Some "two") ] -> ()
  | r -> Alcotest.failf "txn batch: %s" (Protocol.render r));
  check "guarded txn aborts"
    (Protocol.Txn_abort { ta_key = 2; ta_expected = 99; ta_found = 1 })
    (rpc c (Protocol.Txn [ Txn.T_cas (2, 99, "z") ]));
  (* the wire accepts values past the program's vsize; validation must
     fail the whole transaction before anything applies *)
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_set (3, "pre"); Txn.T_set (4, String.make (vsize + 1) 'x') ])
   with
  | Protocol.Error_msg _ -> ()
  | r -> Alcotest.failf "oversize txn: %s" (Protocol.render r));
  check "oversize txn applied nothing"
    (Protocol.Version { v_key = 3; v_ver = 0; v_val = None })
    (rpc c (Protocol.Getv 3));
  (* scan on an unprotected plan returns SVAL items with live versions *)
  (match rpc c (Protocol.Scan { sc_start = 0; sc_stop = 100; sc_limit = 10 }) with
  | Protocol.Scan_reply
      [ { Protocol.si_key = 1; si_ver = 2; si_val = Some "beta" };
        { Protocol.si_key = 2; si_ver = 1; si_val = Some "two" };
        { Protocol.si_key = 5; si_ver = 2; si_val = Some "upd" } ] -> ()
  | r -> Alcotest.failf "scan: %s" (Protocol.render r));
  (* the limit truncates in ascending order *)
  (match rpc c (Protocol.Scan { sc_start = 0; sc_stop = 100; sc_limit = 2 }) with
  | Protocol.Scan_reply [ { Protocol.si_key = 1; _ }; { Protocol.si_key = 2; _ } ]
    -> ()
  | r -> Alcotest.failf "limited scan: %s" (Protocol.render r));
  check "del" Protocol.Deleted (rpc c (Protocol.Del 2));
  (match rpc c (Protocol.Scan { sc_start = 0; sc_stop = 100; sc_limit = 10 }) with
  | Protocol.Scan_reply [ { Protocol.si_key = 1; _ }; { Protocol.si_key = 5; _ } ]
    -> ()
  | r -> Alcotest.failf "scan after del: %s" (Protocol.render r));
  let s = Server.stats srv in
  Alcotest.(check int) "txns counted" 3 s.Server.s_txns;
  Alcotest.(check int) "cas counted" 4 s.Server.s_cas;
  Alcotest.(check int) "cas conflicts counted" 2 s.Server.s_cas_conflicts;
  Alcotest.(check int) "scans counted" 3 s.Server.s_scans;
  Alcotest.(check bool) "aborts counted" true (s.Server.s_txn_aborts >= 2);
  let fields = Server.stats_fields srv in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in stats fields") true
        (List.mem_assoc k fields))
    [ "getv"; "cas"; "cas_conflicts"; "txns"; "txn_commits"; "txn_aborts";
      "scans"; "scan_items" ];
  Unix.close c.fd;
  Server.drain srv

(* ------------------------------------------------------------------ *)
(* the indexed-accounts example: both engines agree on every
   declassified result (cross-color RMW + unsafe index lookups) *)

let accounts_results engine =
  let plan = plan_of ~mode:Mode.Relaxed Programs.indexed_accounts in
  let store = Server.store_of_pinterp (Pinterp.create ~engine plan) in
  let call entry args =
    match
      store.Server.st_call entry
        (List.map (fun a -> Rvalue.Int (Int64.of_int a)) args)
    with
    | Ok (Rvalue.Int n) -> Int64.to_int n
    | Ok _ -> 0
    | Error m -> Alcotest.failf "%s: %s" entry m
  in
  ignore (call "acct_init" [] : int);
  (* List.map keeps the call order left-to-right (a bare list literal
     would not) *)
  List.map
    (fun (entry, args) -> call entry args)
    [ ("acct_open", [ 7; 100; 50 ]);    (* fresh *)
      ("acct_open", [ 7; 100; 10 ]);    (* duplicate id *)
      ("acct_open", [ 23; 100; 25 ]); ("acct_open", [ 9; 200; 5 ]);
      ("acct_deposit", [ 7; 25 ]);      (* cross-color RMW *)
      ("acct_deposit", [ 42; 5 ]);      (* absent account *)
      ("acct_balance", [ 7 ]); ("acct_balance", [ 23 ]);
      ("acct_balance", [ 42 ]);
      ("acct_find", [ 100 ]); ("acct_find", [ 200 ]);
      ("acct_find", [ 300 ]); ("acct_count", []) ]

let test_indexed_accounts () =
  let want = [ 1; 0; 1; 1; 1; 0; 75; 25; -1; 2; 1; 0; 3 ] in
  List.iter
    (fun engine ->
      Alcotest.(check (list int))
        (Exec.engine_name engine ^ " results")
        want (accounts_results engine))
    [ Exec.Walk; Exec.Image ]

(* ------------------------------------------------------------------ *)
(* cross-shard 2PC atomicity: a transaction straddling all four shards
   either applies everywhere or nowhere, and its replication deltas stay
   contiguous in the merged log *)

let test_cross_shard_2pc () =
  let shards = 4 in
  let srv =
    start_server ~shards ~engine:(Exec.default_engine ())
      (plan_of (Programs.memcached ~nbuckets:64 ~vsize `Plain))
  in
  let c = connect (Server.port srv) in
  let getv k =
    match rpc c (Protocol.Getv k) with
    | Protocol.Version { v_ver; v_val; _ } -> (v_ver, v_val)
    | r -> Alcotest.failf "getv %d: %s" k (Protocol.render r)
  in
  (* one key per shard *)
  for k = 0 to 3 do
    match rpc c (Protocol.Set (k, Printf.sprintf "base%d" k)) with
    | Protocol.Stored -> ()
    | r -> Alcotest.failf "seed set: %s" (Protocol.render r)
  done;
  (* abort: a stale guard on shard 3 must leave shards 0-2 untouched *)
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_set (0, "dirty0"); Txn.T_set (1, "dirty1");
            Txn.T_set (2, "dirty2"); Txn.T_cas (3, 99, "dirty3") ])
   with
  | Protocol.Txn_abort { ta_key = 3; ta_expected = 99; ta_found = 1 } -> ()
  | r -> Alcotest.failf "expected abort, got %s" (Protocol.render r));
  for k = 0 to 3 do
    let ver, v = getv k in
    Alcotest.(check int) "abort left version" 1 ver;
    Alcotest.(check (option string)) "abort left value"
      (Some (Printf.sprintf "base%d" k)) v
  done;
  (* validation failure on one shard (oversize) also applies nothing *)
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_set (0, "dirty0");
            Txn.T_set (1, String.make (vsize + 1) 'x') ])
   with
  | Protocol.Error_msg _ -> ()
  | r -> Alcotest.failf "oversize 2pc txn: %s" (Protocol.render r));
  Alcotest.(check int) "oversize applied nothing" 1 (fst (getv 0));
  (* commit: reads + writes across all four shards apply atomically *)
  let log_before =
    Privagic_replication.Log.head (Server.repl_log srv)
  in
  (match
     rpc c
       (Protocol.Txn
          [ Txn.T_get 0; Txn.T_cas (1, 1, "upd1"); Txn.T_set (2, "upd2");
            Txn.T_del 3; Txn.T_set (6, "new6") ])
   with
  | Protocol.Txn_reply
      [ Protocol.R_value (Some "base0"); Protocol.R_stored; Protocol.R_stored;
        Protocol.R_deleted; Protocol.R_stored ] -> ()
  | r -> Alcotest.failf "2pc commit: %s" (Protocol.render r));
  Alcotest.(check (pair int (option string))) "shard 1 applied" (2, Some "upd1")
    (getv 1);
  Alcotest.(check (pair int (option string))) "shard 2 applied" (2, Some "upd2")
    (getv 2);
  Alcotest.(check (pair int (option string))) "shard 3 deleted" (2, None)
    (getv 3);
  Alcotest.(check (pair int (option string))) "shard 2 insert" (1, Some "new6")
    (getv 6);
  (* the commit's four writes are one contiguous run in the merged log *)
  let log = Privagic_replication.Log.to_list (Server.repl_log srv) in
  let tail =
    List.filteri (fun i _ -> i >= log_before) log
    |> List.map (fun (d : Delta.t) ->
           match d.Delta.op with
           | Delta.Put { key; _ } -> (d.Delta.seq, `Put key)
           | Delta.Del { key } -> (d.Delta.seq, `Del key))
  in
  (match tail with
  | [ (s1, `Put 1); (s2, `Put 2); (s3, `Del 3); (s4, `Put 6) ]
    when s2 = s1 + 1 && s3 = s2 + 1 && s4 = s3 + 1 -> ()
  | _ ->
    Alcotest.failf "txn deltas not contiguous in log (%d entries after %d)"
      (List.length tail) log_before);
  let s = Server.stats srv in
  Alcotest.(check bool) "2pc txns crossed shards" true (s.Server.s_xshard > 0);
  Alcotest.(check int) "one txn committed" 1 s.Server.s_txn_commits;
  Alcotest.(check int) "one txn aborted" 1 s.Server.s_txn_aborts;
  Unix.close c.fd;
  Server.drain srv

(* ------------------------------------------------------------------ *)
(* the YCSB-E/F mixes through the load generator, then guarded
   transactions, against colored memcached on two shards: no mix error,
   and commit/abort counts that the client and the server agree on
   exactly *)

let test_mixes_and_txn_counters () =
  let records = 128 and ops = 300 and txns = 200 in
  let srv =
    start_server ~shards:2 ~engine:(Exec.default_engine ())
      (plan_of (Programs.memcached ~nbuckets:256 ~vsize `Colored))
  in
  let cfg =
    { Loadgen.default_config with
      Loadgen.port = Server.port srv;
      clients = 4;
      ops;
      record_count = records;
      vsize;
      scan_len = 16 }
  in
  let run_mix mix ~preload =
    let r = Loadgen.run { cfg with Loadgen.mix; preload } in
    let name = Loadgen.mix_name mix in
    Alcotest.(check int) (name ^ " errors") 0 r.Loadgen.r_errors;
    Alcotest.(check int) (name ^ " ops answered") ops r.Loadgen.r_ops_ok;
    r
  in
  let e = run_mix Loadgen.Ycsb_e ~preload:true in
  Alcotest.(check bool) "ycsb-e scanned" true
    (e.Loadgen.r_scans > 0 && e.Loadgen.r_scan_items > 0);
  let before_f = Server.stats srv in
  ignore (run_mix Loadgen.Ycsb_f ~preload:false);
  let before = Server.stats srv in
  Alcotest.(check bool) "ycsb-f ran read-modify-writes" true
    (before.Server.s_getv > before_f.Server.s_getv
    && before.Server.s_cas > before_f.Server.s_cas);
  (* even transactions read-check-write key k and blind-write k + 1, so
     they span both shards and commit; odd ones carry a stale guard and
     abort. The keys lie above anything the mixes touched, so versions
     are tracked exactly here. *)
  let c = connect (Server.port srv) in
  let versions = Hashtbl.create 64 in
  let ver k = Option.value ~default:0 (Hashtbl.find_opt versions k) in
  let bump k = Hashtbl.replace versions k (ver k + 1) in
  let commits = ref 0 and aborts = ref 0 in
  for i = 0 to txns - 1 do
    let k = records + 10_000 + (i mod 32) in
    let payload = Ycsb.value_for ~size:vsize k in
    let req =
      if i mod 2 = 0 then
        Protocol.Txn
          [ Txn.T_get k; Txn.T_cas (k, ver k, payload);
            Txn.T_set (k + 1, payload) ]
      else Protocol.Txn [ Txn.T_cas (k, ver k + 1000, payload) ]
    in
    match rpc c req with
    | Protocol.Txn_reply _ ->
      incr commits;
      bump k;
      bump (k + 1)
    | Protocol.Txn_abort _ -> incr aborts
    | r -> Alcotest.failf "txn %d: %s" i (Protocol.render r)
  done;
  Unix.close c.fd;
  let after = Server.stats srv in
  Server.drain srv;
  Alcotest.(check int) "client commits" (txns / 2) !commits;
  Alcotest.(check int) "client aborts" (txns / 2) !aborts;
  Alcotest.(check int) "server txn_commits" (txns / 2)
    (after.Server.s_txn_commits - before.Server.s_txn_commits);
  Alcotest.(check int) "server txn_aborts" (txns / 2)
    (after.Server.s_txn_aborts - before.Server.s_txn_aborts);
  Alcotest.(check bool) "commits crossed shards" true
    (after.Server.s_xshard > before.Server.s_xshard)

let suite =
  [
    Alcotest.test_case "execute: snapshot reads, guards, atomic commit" `Quick
      test_execute_pure;
    Alcotest.test_case "execute: inapplicable writes fail before apply" `Quick
      test_execute_applicability;
    Alcotest.test_case "index: color inheritance rule" `Quick
      test_index_color_rule;
    Alcotest.test_case "scan: range oracle" `Quick
      test_range_oracle;
    Alcotest.test_case "differential transcript on all four cells" `Slow
      test_differential_cells;
    Alcotest.test_case "replica converges on versions and indexes" `Quick
      test_replica_convergence;
    Alcotest.test_case "socket roundtrip of every verb" `Quick
      test_socket_roundtrip;
    Alcotest.test_case "cross-shard 2PC: atomic or nothing" `Quick
      test_cross_shard_2pc;
    Alcotest.test_case "indexed accounts agree across engines" `Quick
      test_indexed_accounts;
    Alcotest.test_case "ycsb-e/f mixes and txn counters on 2 shards" `Quick
      test_mixes_and_txn_counters;
  ]
