(* Seeded deterministic simulation of the served store's shard cores.

   One domain steps N sans-IO cores ([Privagic_server.Core]) and M
   clients. A seeded PRNG picks every next step: adopt a client's
   connection, deliver a fragment of a client's rendered pipeline or
   its EOF, deliver one inbox item (each
   sender->receiver stream stays FIFO, as the Msqueue keeps it), step a
   woken core, resolve a pending sync fence, make a client vanish, or
   start the two-stage drain. A core runs only when something woke it —
   an inbox wake, readable bytes, a fence result — the way its shell
   sleeps in select, so a lost wakeup shows as a stuck schedule.

   The stores are real simulator instances of the test memcached plan.
   After the drain the checker asserts:
   - per connection, exactly one response per parsed request, in order
     (a vanished client is exempt);
   - every response agrees with the commit log as a sequential model:
     per key, the log is the order the owning shard executed writes,
     and each connection's requests on a key fall in that order in
     issue order;
   - a multi-key transaction commits as one contiguous log run, and an
     aborted or shed write never reaches the log;
   - every store holds exactly what the log says it should.
   The run also fails when it checked fewer responses than it ran
   schedules: a driver that delivers nothing must not pass.

   A failing schedule prints its reproducer:
     dune exec test/main.exe -- test sim --seed N *)

module Core = Privagic_server.Core
module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Delta = Privagic_replication.Delta
module Log = Privagic_replication.Log
open Privagic_vm

(* The first schedule's seed; main's [--seed N] rebases it. *)
let base_seed = ref 1
let schedules = 1000
let keys = 6
let vsize = Test_server.vsize

let plan = lazy (Test_server.plan ())

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* ------------------------------------------------------------------ *)
(* workload *)

type client = {
  cid : int;                        (* also its connection id *)
  home : int;                       (* the core that owns the connection *)
  reqs : Protocol.request array;
  wire : string;
  ends : int array;                 (* byte offset where request i ends *)
  mutable sent : int;
  rd : Protocol.resp_reader;
  mutable resps : Protocol.response list;  (* newest first *)
  mutable adopted : bool;
  doomed : bool;                    (* may vanish mid-pipeline *)
  mutable vanished : bool;
  half_close : bool;                (* sends EOF after its last byte *)
  mutable eof : bool;
}

let gen_request rng ~cid i =
  let key () = Random.State.int rng keys in
  let value j = Printf.sprintf "c%dr%do%d" cid i j in
  match Random.State.int rng 10 with
  | 0 | 1 -> Protocol.Get (key ())
  | 2 | 3 -> Protocol.Set (key (), value 0)
  | 4 -> Protocol.Del (key ())
  | 5 -> Protocol.Getv (key ())
  | 6 -> Protocol.Cas { c_key = key (); c_ver = Random.State.int rng 4; c_val = value 0 }
  | 7 | 8 ->
    (* distinct keys, so no op reads its own transaction's write *)
    let ks = List.sort_uniq compare (List.init (1 + Random.State.int rng 3) (fun _ -> key ())) in
    Protocol.Txn
      (List.mapi
         (fun j k ->
           match Random.State.int rng 4 with
           | 0 -> Protocol.T_get k
           | 1 -> Protocol.T_set (k, value j)
           | 2 -> Protocol.T_del k
           | _ -> Protocol.T_cas (k, Random.State.int rng 3, value j))
         ks)
  | _ ->
    let start = Random.State.int rng keys in
    Protocol.Scan { sc_start = start; sc_stop = start + Random.State.int rng 3; sc_limit = 16 }

let gen_client rng ~shards cid =
  let reqs = Array.init (1 + Random.State.int rng 10) (gen_request rng ~cid) in
  let rendered = Array.map Protocol.render_request reqs in
  let ends = Array.make (Array.length reqs) 0 in
  Array.iteri
    (fun i s -> ends.(i) <- (if i = 0 then 0 else ends.(i - 1)) + String.length s)
    rendered;
  { cid; home = cid mod shards; reqs; wire = String.concat "" (Array.to_list rendered);
    ends; sent = 0; rd = Protocol.resp_reader (); resps = []; adopted = false;
    doomed = Random.State.int rng 5 = 0; vanished = false;
    half_close = Random.State.bool rng; eof = false }

let parsed c = Array.fold_left (fun n e -> if e <= c.sent then n + 1 else n) 0 c.ends

(* ------------------------------------------------------------------ *)
(* one schedule *)

type world = {
  cfg : Server.config;
  stores : Server.store array;
  log : Log.t;
  cores : Core.t array;
  clients : client array;
}

let run_schedule seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let shards = pick [ 1; 2; 4 ] in
  let cfg =
    { Server.default_config with
      shards; vsize;
      queue_depth = pick [ 1; 64 ];
      policy = pick [ Server.Block; Server.Shed ];
      max_batch = pick [ 1; 8 ] }
  in
  let sync = Random.State.bool rng in
  let p = Lazy.force plan in
  let stores =
    Array.init shards (fun _ ->
        let s = Server.store_of_pinterp (Pinterp.create p) in
        Test_server.init_store s;
        s)
  in
  let bnd = Option.get (Server.bindings_of_plan p) in
  let log = Log.create () in
  let g =
    Core.group ~cfg ~bnd ~log ~role:(Atomic.make Core.Primary)
      ~sync:(fun () -> sync)
      ~info:(fun _ -> Protocol.Error_msg "no stats in the simulation")
      ~self:(fun () -> (Domain.self () :> int))
      stores
  in
  let cores = g.Core.cores in
  let clients = Array.init (1 + Random.State.int rng 6) (gen_client rng ~shards) in
  (* the drain may start once this many steps have run (or when
     nothing else can happen) *)
  let drain_after = Random.State.int rng 200 in
  (* the world outside the cores *)
  let chan = Array.init shards (fun _ -> Array.init shards (fun _ -> Queue.create ())) in
  let woken = Array.make shards false and fences = Array.make shards 0 in
  let drain = ref false and closed = ref false and dispatched = ref 0 in
  let now = ref 0.0 in
  let emit s = function
    | Core.Write (id, b) ->
      let c = clients.(id) in
      let got = Protocol.feed_resp c.rd (Bytes.of_string b) (String.length b) in
      c.resps <- List.rev_append got c.resps
    | Core.Close _ -> ()
    | Core.Handoff _ -> fail "replication handoff without a repl verb"
    | Core.Send (r, item) -> Queue.push item chan.(s).(r)
    | Core.Wake k -> woken.(k) <- true
    | Core.Fence _ -> fences.(s) <- fences.(s) + 1
    | Core.Dispatched ->
      incr dispatched;
      if !dispatched = shards then begin
        (* stage 2: close every inbox and wake every loop *)
        closed := true;
        Array.fill woken 0 shards true
      end
    | Core.Shutdown -> fail "shutdown verb without one sent"
  in
  let handle s ev =
    now := !now +. 1.0;
    Core.handle cores.(s) ~now:!now ~emit:(emit s) ev
  in
  let step s =
    woken.(s) <- false;
    (* the shell pops everything queued: a random merge of the senders'
       streams, each one in order *)
    let rec pop () =
      let senders = Array.to_list (Array.map (fun row -> row.(s)) chan) in
      match List.filter (fun q -> not (Queue.is_empty q)) senders with
      | [] -> ()
      | qs ->
        handle s (Core.Inbox (Queue.pop (pick qs)));
        pop ()
    in
    let was_closed = !closed in
    pop ();
    if was_closed then handle s Core.Closed;
    let rec run () =
      now := !now +. 1.0;
      if Core.run cores.(s) ~now:!now ~emit:(emit s) then run ()
    in
    run ()
  in
  (* a core with readable bytes or a fence result is runnable too *)
  let ready = Array.make shards false in
  let actions steps =
    let acts = ref [] in
    let add w f = acts := (w, f) :: !acts in
    Array.iter
      (fun c ->
        if (not c.adopted) && not !drain then
          add 4 (fun () ->
              c.adopted <- true;
              handle c.home (Core.Adopt c.cid);
              ready.(c.home) <- true)
        else if c.adopted && not c.vanished then begin
          let left = String.length c.wire - c.sent in
          if left > 0 && Core.wants_read cores.(c.home) c.cid then
            add 8 (fun () ->
                let n = 1 + Random.State.int rng (min left 48) in
                handle c.home (Core.Read (c.cid, Bytes.of_string (String.sub c.wire c.sent n), n));
                c.sent <- c.sent + n;
                ready.(c.home) <- true);
          if left = 0 && c.half_close && (not c.eof) && not !drain then
            add 2 (fun () ->
                c.eof <- true;
                handle c.home (Core.Eof c.cid);
                ready.(c.home) <- true);
          if c.doomed && not !drain then
            add 1 (fun () ->
                c.vanished <- true;
                handle c.home (Core.Dead c.cid);
                ready.(c.home) <- true)
        end)
      clients;
    for s = 0 to shards - 1 do
      if woken.(s) || ready.(s) then
        add 6 (fun () ->
            ready.(s) <- false;
            step s);
      if woken.(s) then
        for r = 0 to shards - 1 do
          if not (Queue.is_empty chan.(r).(s)) then
            add 3 (fun () -> handle s (Core.Inbox (Queue.pop chan.(r).(s))))
        done;
      if fences.(s) > 0 then
        add 3 (fun () ->
            fences.(s) <- fences.(s) - 1;
            handle s Core.Fenced;
            ready.(s) <- true)
    done;
    let start_drain () =
      drain := true;
      Array.iteri (fun s _ -> handle s Core.Drain; ready.(s) <- true) cores
    in
    if (not !drain) && (steps >= drain_after || !acts = []) then add 1 start_drain;
    !acts
  in
  let rec loop steps =
    if steps = 100_000 then fail "no quiescence after 100000 steps";
    match actions steps with
    | [] -> ()
    | acts ->
      let total = List.fold_left (fun n (w, _) -> n + w) 0 acts in
      let rec choose k = function
        | (w, f) :: rest -> if k < w then f else choose (k - w) rest
        | [] -> assert false
      in
      choose (Random.State.int rng total) acts ();
      loop (steps + 1)
  in
  loop 0;
  Array.iteri
    (fun s c -> if not (Core.finished c) then fail "shard %d stuck: drain never finished" s)
    cores;
  { cfg; stores; log; cores; clients }

(* ------------------------------------------------------------------ *)
(* the checker *)

let check w =
  (* per key, the committed writes in log order; position j is the
     state after the key's j-th write, whose version is j *)
  let hist = Array.make keys [||] in
  let put_at : (string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (d : Delta.t) ->
      let k, v = match d.Delta.op with
        | Delta.Put { key; payload; _ } -> (key, Some payload)
        | Delta.Del { key } -> (key, None) in
      hist.(k) <- Array.append hist.(k) [| v |];
      Option.iter
        (fun v ->
          if Hashtbl.mem put_at v then fail "value %S committed twice" v;
          Hashtbl.replace put_at v (k, Array.length hist.(k), d.Delta.seq))
        v)
    (Log.to_list w.log);
  let state k j = if j = 0 then None else hist.(k).(j - 1) in
  let top k = Array.length hist.(k) in
  (* which request wrote each value, and whether it was answered as
     having failed *)
  let failed_write = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let resps = Array.of_list (List.rev c.resps) in
      let n = parsed c in
      if (not c.vanished) && Array.length resps <> n then
        fail "client %d: %d responses to %d parsed requests" c.cid (Array.length resps) n;
      if Array.length resps > n then fail "client %d: response to an unsent request" c.cid;
      let cur = Array.make keys 0 in
      let at k j what =
        if j < cur.(k) then
          fail "client %d: %s on key %d at position %d, after %d" c.cid what k j cur.(k);
        if j > top k then fail "client %d: %s on key %d at version %d past the log" c.cid what k j;
        cur.(k) <- j
      in
      let read k v =
        match v with
        | Some v -> (
          match Hashtbl.find_opt put_at v with
          | Some (k', j, _) when k' = k -> at k j "read"
          | _ -> fail "client %d: read %S on key %d, never committed there" c.cid v k)
        | None ->
          let rec absent j =
            if j > top k then fail "client %d: miss on key %d after position %d" c.cid k cur.(k)
            else if state k j = None then at k j "miss"
            else absent (j + 1)
          in
          absent cur.(k)
      in
      let version k ver v =
        at k ver "versioned read";
        match v with
        | Some x when state k ver <> v ->
          fail "client %d: key %d at version %d read %S" c.cid k ver x
        | _ -> ()
      in
      let put ?expect k v =
        match Hashtbl.find_opt put_at v with
        | Some (k', p, _) when k' = k ->
          if p <= cur.(k) then fail "client %d: write %S on key %d reordered" c.cid v k;
          Option.iter
            (fun e ->
              if p - 1 <> e then
                fail "client %d: cas %S applied at version %d, expected %d" c.cid v (p - 1) e)
            expect;
          at k p "write"
        | _ -> fail "client %d: acknowledged write %S on key %d is not in the log" c.cid v k
      in
      let del k =
        let rec find p =
          if p > top k then fail "client %d: acknowledged del on key %d is not in the log" c.cid k
          else if state k p = None && state k (p - 1) <> None then at k p "del"
          else find (p + 1)
        in
        find (cur.(k) + 1)
      in
      let refused vs = List.iter (fun v -> Hashtbl.replace failed_write v ()) vs in
      let puts ops =
        List.filter_map
          (function Protocol.T_set (_, v) | Protocol.T_cas (_, _, v) -> Some v | _ -> None)
          ops
      in
      Array.iteri
        (fun i resp ->
          let shape () =
            fail "client %d: request %d answered %S" c.cid i (String.trim (Protocol.render resp))
          in
          match (c.reqs.(i), resp) with
          | (Protocol.Set (_, v) | Protocol.Cas { c_val = v; _ }), Protocol.Busy -> refused [ v ]
          | Protocol.Txn ops, Protocol.Busy -> refused (puts ops)
          | _, Protocol.Busy -> ()
          | Protocol.Get k, Protocol.Value (k', v) when k = k' -> read k (Some v)
          | Protocol.Get k, Protocol.Miss -> read k None
          | Protocol.Set (k, v), Protocol.Stored -> put k v
          | Protocol.Del k, Protocol.Deleted -> del k
          | Protocol.Del k, Protocol.Not_found -> read k None
          | Protocol.Getv k, Protocol.Version { v_key; v_ver; v_val } when v_key = k ->
            version k v_ver v_val;
            if v_val = None && state k v_ver <> None then
              fail "client %d: getv missed key %d present at version %d" c.cid k v_ver
          | Protocol.Cas { c_key; c_ver; c_val }, Protocol.Stored -> put ~expect:c_ver c_key c_val
          | Protocol.Cas { c_key; c_ver; c_val }, Protocol.Cas_conflict found when found <> c_ver ->
            refused [ c_val ];
            version c_key found None
          | Protocol.Cas { c_key; c_ver; c_val }, Protocol.Not_found when c_ver > 0 ->
            refused [ c_val ];
            version c_key 0 None
          | Protocol.Txn ops, Protocol.Txn_abort { ta_key; ta_expected; ta_found }
            when ta_expected <> ta_found
                 && List.exists
                      (function
                        | Protocol.T_cas (k, e, _) -> k = ta_key && e = ta_expected
                        | _ -> false)
                      ops ->
            refused (puts ops);
            version ta_key ta_found None
          | Protocol.Txn ops, Protocol.Txn_reply results
            when List.length results = List.length ops ->
            List.iter2
              (fun op r ->
                match (op, r) with
                | Protocol.T_get k, Protocol.R_value v -> read k v
                | Protocol.T_set (k, v), Protocol.R_stored -> put k v
                | Protocol.T_cas (k, e, v), Protocol.R_stored -> put ~expect:e k v
                | Protocol.T_del k, Protocol.R_deleted -> del k
                | Protocol.T_del k, Protocol.R_not_found -> read k None
                | _ -> shape ())
              ops results;
            (* all-or-nothing: one contiguous run in the log *)
            let seqs =
              List.map (fun v -> let _, _, s = Hashtbl.find put_at v in s) (puts ops)
            in
            let writes =
              List.length (List.filter (function Protocol.T_get _ -> false | _ -> true) ops)
            in
            (match seqs with
            | [] -> ()
            | s :: _ ->
              let lo = List.fold_left min s seqs and hi = List.fold_left max s seqs in
              if hi - lo >= writes then fail "client %d: txn %d committed as a split run" c.cid i)
          | Protocol.Scan { sc_start; sc_stop; _ }, Protocol.Scan_reply items ->
            let seen = List.map (fun (it : Protocol.scan_item) -> it.Protocol.si_key) items in
            if seen <> List.sort_uniq compare seen then shape ();
            List.iter
              (fun (it : Protocol.scan_item) ->
                let k = it.Protocol.si_key in
                if k < sc_start || k > sc_stop then shape ();
                version k it.Protocol.si_ver None;
                if state k it.Protocol.si_ver = None then
                  fail "client %d: scan returned key %d absent at version %d" c.cid k
                    it.Protocol.si_ver)
              items;
            for k = sc_start to min sc_stop (keys - 1) do
              if not (List.mem k seen) then read k None
            done
          | _ -> shape ())
        resps)
    w.clients;
  (* a write answered as refused never reaches the log *)
  Hashtbl.iter
    (fun v () -> if Hashtbl.mem put_at v then fail "refused write %S was committed" v)
    failed_write;
  (* every store holds what the log says *)
  let n = Array.length w.stores in
  for k = 0 to keys - 1 do
    let st = w.stores.(k mod n) in
    let buf = st.Server.st_alloc vsize in
    let got =
      match st.Server.st_call "mc_get" [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr buf ] with
      | Ok v when Rvalue.truthy v -> Some (st.Server.st_read buf vsize)
      | Ok _ -> None
      | Error m -> fail "final read of key %d: %s" k m
    in
    let want =
      Option.map (fun v -> v ^ String.make (vsize - String.length v) '\000') (state k (top k))
    in
    if got <> want then fail "key %d: the store disagrees with the log" k
  done;
  Array.fold_left (fun n c -> n + List.length c.resps) 0 w.clients

let test_schedules () =
  let t0 = Unix.gettimeofday () and checked = ref 0 in
  for i = 0 to schedules - 1 do
    let seed = !base_seed + i in
    match check (run_schedule seed) with
    | n -> checked := !checked + n
    | exception Violation m ->
      Alcotest.failf "schedule %d: %s\n  reproduce: dune exec test/main.exe -- test sim --seed %d"
        seed m seed
  done;
  Printf.printf "%d schedules, %d responses checked, in %.1f s\n%!" schedules !checked
    (Unix.gettimeofday () -. t0);
  (* a schedule that never delivers a request checks nothing *)
  if !checked < schedules then
    Alcotest.failf "only %d responses over %d schedules" !checked schedules

(* The single-writer rule: the first domain to step a core owns it. *)
let test_owner () =
  let p = Lazy.force plan in
  let store = Server.store_of_pinterp (Pinterp.create p) in
  Test_server.init_store store;
  let g =
    Core.group ~cfg:{ Server.default_config with vsize }
      ~bnd:(Option.get (Server.bindings_of_plan p)) ~log:(Log.create ())
      ~role:(Atomic.make Core.Primary) ~sync:(fun () -> false)
      ~info:(fun _ -> Protocol.Ok_msg) ~self:(fun () -> (Domain.self () :> int))
      [| store |]
  in
  let core = g.Core.cores.(0) in
  ignore (Core.run core ~now:0.0 ~emit:ignore);
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           match Core.run core ~now:1.0 ~emit:ignore with
           | _ -> "stepped"
           | exception Invalid_argument _ -> "refused"))
  in
  Alcotest.(check string) "a second domain is refused" "refused" other;
  Core.handle core ~now:2.0 ~emit:ignore (Core.Adopt 0);
  Alcotest.(check bool) "the owner still steps it" true (Core.wants_read core 0)

let suite =
  [
    Alcotest.test_case "seeded schedules: FIFO, log order, atomicity, drain" `Quick
      test_schedules;
    Alcotest.test_case "single-writer rule: another domain is refused" `Quick test_owner;
  ]
