(* Seeded deterministic simulation of the served store's shard cores.

   One domain steps N sans-IO cores ([Privagic_server.Core]), M
   clients and, chosen by the seed, 0 or 1 sync replication link
   ([Privagic_replication.Shipper]) hosted by a random core. A seeded
   PRNG picks every next step: adopt a client's connection, deliver a
   fragment of a client's rendered pipeline or its EOF, deliver one
   inbox item (each sender->receiver stream stays FIFO, as the Msqueue
   keeps it), step a woken core, make a client vanish, start the
   drain (or, when the seed ends one client's pipeline in the
   [shutdown] verb, let that verb start it), adopt a connection after
   the drain started, and for the link: deliver a prefix of its pending
   bytes to the replica, withhold them, ack a prefix of what the
   replica received, or advance the clock past the oldest held fence's
   deadline. A core runs only when something woke it — an inbox wake,
   readable bytes, an ack, its deadline, a log append for the link's
   host — the way its shell sleeps in select, so a lost wakeup shows as
   a stuck schedule.

   The drain ends as the shell ends it: a started drain wakes every
   core, each steps [Drain] when it next runs, and a core counts the
   first time [Core.finished] holds after one of its steps. The
   schedule ends when every core has counted; whatever is still queued
   then is lost, so the checks below police that exit rule.

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
   - every store holds exactly what the log says it should;
   - a fenced reply leaves only once its seq is acked or its fence's
     deadline has passed, never earlier;
   - the fence timeouts the schedule caused equal the cores' counters;
   - the frames the link emitted decode to a prefix of the commit log,
     in order.
   And after every step: no core sleeps on a held fence that is already
   acked (a lost ack wakeup would otherwise hide until the deadline).
   The run also fails when it checked fewer responses than it ran
   schedules: a driver that delivers nothing must not pass.

   A failing schedule prints its reproducer:
     dune exec test/main.exe -- test sim --seed N *)

module Core = Privagic_server.Core
module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Delta = Privagic_replication.Delta
module Log = Privagic_replication.Log
module Seal = Privagic_replication.Seal
module Shipper = Privagic_replication.Shipper
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
  mutable stamps : (float * int) list;
      (* per response: when it left, and the seq the link had acked *)
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

let gen_client rng ~shards ~trigger cid =
  let reqs = Array.init (1 + Random.State.int rng 10) (gen_request rng ~cid) in
  let reqs = if trigger = Some cid then Array.append reqs [| Protocol.Shutdown |] else reqs in
  let rendered = Array.map Protocol.render_request reqs in
  let ends = Array.make (Array.length reqs) 0 in
  Array.iteri
    (fun i s -> ends.(i) <- (if i = 0 then 0 else ends.(i - 1)) + String.length s)
    rendered;
  { cid; home = cid mod shards; reqs; wire = String.concat "" (Array.to_list rendered);
    ends; sent = 0; rd = Protocol.resp_reader (); resps = []; stamps = []; adopted = false;
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
  appended_at : (int, float) Hashtbl.t;  (* seq -> time of its commit *)
  timeouts : int;                        (* fences the schedule timed out *)
  emitted : Delta.frame list;            (* what the link sent, in order *)
  by_verb : bool;                        (* the shutdown verb started the drain *)
  late : int;                            (* connections adopted after it *)
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
  let host = if Random.State.bool rng then Some (Random.State.int rng shards) else None in
  let p = Lazy.force plan in
  let stores =
    Array.init shards (fun _ ->
        let s = Server.store_of_pinterp (Pinterp.create p) in
        Test_server.init_store s;
        s)
  in
  let bnd = Option.get (Server.bindings_of_plan p) in
  let log = Log.create () in
  let now = ref 0.0 in
  (* the link: the host fills it after each of its steps; the replica
     end decodes whatever the schedule delivers and acks some prefix *)
  let hub = Shipper.create ~log () in
  let link = Option.map (fun _ -> Shipper.attach hub ~sync:true ~from_seq:1) host in
  let pending = Buffer.create 256 and replica = Delta.reader () in
  let emitted = ref [] and received = ref 0 and acked = ref 0 in
  let ship () =
    Option.iter
      (fun l ->
        Shipper.fill hub l ~now:!now;
        Buffer.add_string pending (Shipper.output l))
      link
  in
  let deliver n =
    let b = Buffer.sub pending 0 n in
    let rest = Buffer.sub pending n (Buffer.length pending - n) in
    Buffer.clear pending;
    Buffer.add_string pending rest;
    List.iter
      (fun f ->
        emitted := f :: !emitted;
        match f with Delta.Frame { d; _ } -> received := d.Delta.seq | _ -> ())
      (Delta.feed replica (Bytes.of_string b) n)
  in
  (* the commit time of each seq: appends happen inside core calls, and
     a call's time is fixed, so stamping after each call is exact *)
  let appended_at = Hashtbl.create 64 and stamped = ref 0 in
  let stamp () =
    let head = Log.head log in
    for q = !stamped + 1 to head do
      Hashtbl.replace appended_at q !now
    done;
    let grew = head > !stamped in
    stamped := head;
    grew
  in
  (* a fence times out when the core finds its seq unacked at or past
     its deadline; the schedule counts those answers itself *)
  let timeouts = ref 0 in
  let synced seq =
    let r = Shipper.synced hub ~seq in
    (match Hashtbl.find_opt appended_at seq with
    | Some at when (not r) && !now >= at +. Core.fence_timeout_us -> incr timeouts
    | _ -> ());
    r
  in
  let g =
    Core.group ~cfg ~bnd ~log ~role:(Atomic.make Core.Primary) ~synced
      ~info:(fun _ -> Protocol.Error_msg "no stats in the simulation")
      ~self:(fun () -> (Domain.self () :> int))
      stores
  in
  let cores = g.Core.cores in
  let n_clients = 1 + Random.State.int rng 6 in
  (* half the schedules end one client's pipeline in [shutdown] *)
  let trigger =
    if Random.State.bool rng then Some (Random.State.int rng n_clients) else None
  in
  let clients = Array.init n_clients (gen_client rng ~shards ~trigger) in
  (* without a shutdown verb, the drain may start once this many steps
     have run; in any schedule, when nothing else can happen *)
  let drain_after = Random.State.int rng 200 in
  (* the world outside the cores *)
  let chan = Array.init shards (fun _ -> Array.init shards (fun _ -> Queue.create ())) in
  let woken = Array.make shards false in
  let drain = ref false and by_verb = ref false and late = ref 0 in
  let counted = Array.make shards false in
  (* the shell's drain: raise the flag and wake every loop; each core
     steps [Drain] when it next runs *)
  let start_drain () =
    drain := true;
    Array.fill woken 0 shards true
  in
  let emit s = function
    | Core.Write (id, b) ->
      let c = clients.(id) in
      let got = Protocol.feed_resp c.rd (Bytes.of_string b) (String.length b) in
      let acked = if link = None then max_int else !acked in
      c.resps <- List.rev_append got c.resps;
      c.stamps <- List.rev_append (List.map (fun _ -> (!now, acked)) got) c.stamps
    | Core.Close _ -> ()
    | Core.Handoff _ -> fail "replication handoff without a repl verb"
    | Core.Send (r, item) -> Queue.push item chan.(s).(r)
    | Core.Wake k -> woken.(k) <- true
    | Core.Shutdown ->
      if trigger = None then fail "shutdown verb without one sent";
      if not !drain then begin
        by_verb := true;
        start_drain ()
      end
  in
  (* an append wakes the link's host, as the log subscription does *)
  let after_call () =
    if stamp () then Option.iter (fun h -> woken.(h) <- true) host
  in
  let handle s ev =
    now := !now +. 1.0;
    Core.handle cores.(s) ~now:!now ~emit:(emit s) ev;
    after_call ()
  in
  let step s =
    woken.(s) <- false;
    if !drain then handle s Core.Drain;
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
    pop ();
    let rec run () =
      now := !now +. 1.0;
      let again = Core.run cores.(s) ~now:!now ~emit:(emit s) in
      after_call ();
      if again then run ()
    in
    run ();
    if host = Some s then ship ();
    (* the shell's exit rule: each core counts once *)
    if Core.finished cores.(s) then counted.(s) <- true
  in
  (* a core with readable bytes or a fence result is runnable too *)
  let ready = Array.make shards false in
  let actions steps =
    let acts = ref [] in
    let add w f = acts := (w, f) :: !acts in
    Array.iter
      (fun c ->
        if not c.adopted then
          (* after the drain started: a connection accepted just before
             it, which its shard adopts late *)
          add (if !drain then 1 else 4) (fun () ->
              c.adopted <- true;
              if !drain then incr late;
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
    done;
    Option.iter
      (fun l ->
        let h = Option.get host in
        let n = Buffer.length pending in
        if n > 0 then begin
          add 3 (fun () -> deliver (1 + Random.State.int rng n));
          add 1 (fun () -> () (* withhold *))
        end;
        if !received > !acked then
          add 3 (fun () ->
              acked := !acked + 1 + Random.State.int rng (!received - !acked);
              let a = Delta.render_ack !acked in
              Shipper.feed l (Bytes.of_string a) (String.length a) ~now:!now;
              Core.wake_fenced cores.(h) ~emit:(emit h));
        let deadlines = Array.map Core.deadline cores in
        match Array.fold_left (fun m d -> Option.fold ~none:m ~some:(Float.min m) d) infinity deadlines with
        | d when d < infinity ->
          add 1 (fun () ->
              now := Float.max !now d;
              Array.iteri (fun s d' -> if d' = Some d then ready.(s) <- true) deadlines)
        | _ -> ())
      link;
    if (not !drain) && ((trigger = None && steps >= drain_after) || !acts = []) then
      add 1 start_drain;
    !acts
  in
  let rec loop steps =
    if steps = 100_000 then fail "no quiescence after 100000 steps";
    if not (Array.for_all Fun.id counted) then
      match actions steps with
      | [] -> ()
      | acts ->
        let total = List.fold_left (fun n (w, _) -> n + w) 0 acts in
        let rec choose k = function
          | (w, f) :: rest -> if k < w then f else choose (k - w) rest
          | [] -> assert false
        in
        choose (Random.State.int rng total) acts ();
        (* no lost ack wakeup: a core whose oldest held fence is acked
           must be runnable, or it would sleep until the deadline *)
        Array.iteri
          (fun s c ->
            match Queue.peek_opt c.Core.fences with
            | Some (_, seq, _) when Shipper.synced hub ~seq && not (woken.(s) || ready.(s)) ->
              fail "shard %d sleeps on fence %d, which is acked" s seq
            | _ -> ())
          cores;
        loop (steps + 1)
  in
  loop 0;
  Array.iteri
    (fun s c -> if not c then fail "shard %d stuck: drain never finished" s)
    counted;
  { cfg; stores; log; cores; clients; appended_at; timeouts = !timeouts;
    emitted = List.rev !emitted; by_verb = !by_verb; late = !late }

(* ------------------------------------------------------------------ *)
(* the checker *)

let check w =
  (* per key, the committed writes in log order; position j is the
     state after the key's j-th write, whose version is j *)
  let hist = Array.make keys [||] and hist_seq = Array.make keys [||] in
  let put_at : (string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (d : Delta.t) ->
      let k, v = match d.Delta.op with
        | Delta.Put { key; payload; _ } -> (key, Some payload)
        | Delta.Del { key } -> (key, None) in
      hist.(k) <- Array.append hist.(k) [| v |];
      hist_seq.(k) <- Array.append hist_seq.(k) [| d.Delta.seq |];
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
      let stamps = Array.of_list (List.rev c.stamps) in
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
      (* the reply to response [i] committed [seq]: a sync fence let it
         go only once the link acked [seq] or the fence's deadline had
         passed *)
      let released i seq =
        let at, acked = stamps.(i) in
        if acked < seq && at < Hashtbl.find w.appended_at seq +. Core.fence_timeout_us then
          fail "client %d: reply %d left at %.0f with seq %d unacked (acked %d)" c.cid i at
            seq acked
      in
      let put ?expect i k v =
        match Hashtbl.find_opt put_at v with
        | Some (k', p, seq) when k' = k ->
          released i seq;
          if p <= cur.(k) then fail "client %d: write %S on key %d reordered" c.cid v k;
          Option.iter
            (fun e ->
              if p - 1 <> e then
                fail "client %d: cas %S applied at version %d, expected %d" c.cid v (p - 1) e)
            expect;
          at k p "write"
        | _ -> fail "client %d: acknowledged write %S on key %d is not in the log" c.cid v k
      in
      let del i k =
        let rec find p =
          if p > top k then fail "client %d: acknowledged del on key %d is not in the log" c.cid k
          else if state k p = None && state k (p - 1) <> None then begin
            released i hist_seq.(k).(p - 1);
            at k p "del"
          end
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
          | Protocol.Set (k, v), Protocol.Stored -> put i k v
          | Protocol.Del k, Protocol.Deleted -> del i k
          | Protocol.Del k, Protocol.Not_found -> read k None
          | Protocol.Shutdown, Protocol.Ok_msg -> ()
          | Protocol.Getv k, Protocol.Version { v_key; v_ver; v_val } when v_key = k ->
            version k v_ver v_val;
            if v_val = None && state k v_ver <> None then
              fail "client %d: getv missed key %d present at version %d" c.cid k v_ver
          | Protocol.Cas { c_key; c_ver; c_val }, Protocol.Stored ->
            put ~expect:c_ver i c_key c_val
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
                | Protocol.T_set (k, v), Protocol.R_stored -> put i k v
                | Protocol.T_cas (k, e, v), Protocol.R_stored -> put ~expect:e i k v
                | Protocol.T_del k, Protocol.R_deleted -> del i k
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
  let counted = Array.fold_left (fun n c -> n + c.Core.n.Core.fence_timeouts) 0 w.cores in
  if counted <> w.timeouts then
    fail "the cores counted %d fence timeouts, the schedule caused %d" counted w.timeouts;
  (* the link's stream: the handshake, then the log from seq 1, in order *)
  (match w.emitted with
  | [] -> ()
  | Delta.Ok_hello 1 :: frames ->
    List.iteri
      (fun i f ->
        match f with
        | Delta.Frame { d; sealed } ->
          let d =
            match d.Delta.op with
            | Delta.Put ({ color; payload; _ } as p) when sealed -> (
              match
                Seal.unseal ~key:(Seal.derive ~cluster:"privagic" color) ~nonce:d.Delta.seq payload
              with
              | Ok payload -> { d with Delta.op = Delta.Put { p with payload } }
              | Error e -> fail "link frame %d: %s" d.Delta.seq e)
            | _ -> d
          in
          if d.Delta.seq <> i + 1 || Log.get w.log (i + 1) <> Some d then
            fail "link frame %d is not log entry %d" d.Delta.seq (i + 1)
        | _ -> fail "link: stray handshake or corrupt frame")
      frames
  | _ -> fail "link: the stream does not start with REPLOK 1");
  (Array.fold_left (fun n c -> n + List.length c.resps) 0 w.clients, List.length w.emitted)

let test_schedules () =
  let t0 = Unix.gettimeofday () and checked = ref 0 and frames = ref 0 and timeouts = ref 0 in
  let by_verb = ref 0 and late = ref 0 in
  for i = 0 to schedules - 1 do
    let seed = !base_seed + i in
    match
      let w = run_schedule seed in
      (w, check w)
    with
    | w, (n, f) ->
      checked := !checked + n;
      frames := !frames + f;
      timeouts := !timeouts + w.timeouts;
      if w.by_verb then incr by_verb;
      late := !late + w.late
    | exception Violation m ->
      Alcotest.failf "schedule %d: %s\n  reproduce: dune exec test/main.exe -- test sim --seed %d"
        seed m seed
  done;
  Printf.printf
    "%d schedules, %d responses checked, %d link frames, %d fence timeouts, %d drains by \
     the shutdown verb, %d late adoptions, in %.1f s\n%!"
    schedules !checked !frames !timeouts !by_verb !late (Unix.gettimeofday () -. t0);
  (* a schedule that never delivers a request checks nothing, and a
     link that never ships or never times a fence out checks no fence *)
  if !checked < schedules then
    Alcotest.failf "only %d responses over %d schedules" !checked schedules;
  if !frames = 0 || !timeouts = 0 then
    Alcotest.failf "%d link frames and %d fence timeouts over %d schedules" !frames !timeouts
      schedules;
  (* nor does a drain the verb never starts, or one no late connection
     meets, check those paths *)
  if !by_verb = 0 || !late = 0 then
    Alcotest.failf "%d drains by the shutdown verb and %d late adoptions over %d schedules"
      !by_verb !late schedules

(* The single-writer rule: the first domain to step a core owns it. *)
let test_owner () =
  let p = Lazy.force plan in
  let store = Server.store_of_pinterp (Pinterp.create p) in
  Test_server.init_store store;
  let g =
    Core.group ~cfg:{ Server.default_config with vsize }
      ~bnd:(Option.get (Server.bindings_of_plan p)) ~log:(Log.create ())
      ~role:(Atomic.make Core.Primary) ~synced:(fun _ -> true)
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
