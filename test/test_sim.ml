(* Seeded deterministic simulation of the served store: the real shard
   loops ([Server.iterate]) over a simulated network.

   The network is this file's IO instance: per connection, the bytes a
   client sent that the server has not read, and the bytes the server
   wrote that the client has not read, up to its receive window; an
   accept backlog; a self-pipe per loop. Reads are short and now and
   then fail with EAGAIN, writes are short or fail with EAGAIN on a full
   window, and a vanished client resets its connection. One domain steps
   the loops, one [iterate] at a time. A select that finds nothing ready
   raises [Asleep]: the loop sleeps on that set and timeout until
   something in it is ready, so a lost wakeup shows as a stuck schedule.

   A seeded PRNG picks each step: step a runnable loop; connect a client,
   send a fragment of its pipeline, half-close it, make it vanish, read
   part of what the server wrote it; advance the clock to a sleeping
   loop's deadline; flood the backlog past the fd cap, then hang the
   flood up. Half the schedules end a pipeline in [shutdown]; else an
   operator sends it after a seeded number of steps, or when nothing else
   can happen. Half have a sync replica: it sends the real [repl] hello,
   decodes the frames it reads and acks a prefix of them. A schedule
   ends when every loop has exited.

   The stores are real simulator instances of the test memcached plan.
   The checker asserts, after the drain:
   - per connection, one response per request the server read, in order
     (a vanished client is exempt, and one the drain dropped after 5 s
     without write progress); a refused one gets the refusal alone;
   - every response agrees with the commit log as a sequential model:
     per key, log order is execution order, and a connection's requests
     fall in it in issue order; a multi-key transaction commits as one
     contiguous run, and an aborted or shed write never does;
   - every store holds what the log says; the replica's frames are a
     prefix of the log;
   - a fenced reply's last byte is written only once its seq is acked or
     its fence's deadline passed; the cores counted exactly the fence
     timeouts the schedule caused.
   And after every step: no loop sleeps on an acked fence, at most fd_cap
   connections are open, no fd is used after its close, and a drain
   follows a parsed [shutdown]; at the end the server has closed every
   connection it accepted. The run fails when it checked fewer responses
   than schedules, or when no schedule reached one of [paths].

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
let drain_stall_us = 5e6 (* the server's *)
let plan = lazy (Test_server.plan ())

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* A loop's select found nothing ready: it sleeps. *)
exception Asleep

(* what the run reached, summed over its schedules: each must be hit *)
let paths =
  [ "responses checked"; "link frames"; "fence timeouts"; "drains by a pipelined shutdown";
    "connections the drain closed unread"; "short writes"; "EAGAINs"; "resets";
    "refusals at the fd cap" ]

let tally = Hashtbl.create 16
let got what = Option.value (Hashtbl.find_opt tally what) ~default:0
let note what n = Hashtbl.replace tally what (got what + n)

(* ------------------------------------------------------------------ *)
(* workload *)

type kind = Client | Replica | Operator | Flood

(* Queued: in the accept backlog; Open: the server holds it; Lost: the
   listen socket closed first *)
type state = Idle | Queued | Open | Closed | Lost

type client = {
  cid : int;
  kind : kind;
  reqs : Protocol.request array;
  mutable wire : string;            (* everything it sends *)
  ends : int array;                 (* byte offset where request i ends *)
  mutable sent : int;
  mutable taken : int;              (* bytes the server read *)
  mutable state : state;
  cap : int;                        (* its receive window *)
  mutable out : string;             (* written by the server, unread *)
  mutable wrote_at : float;         (* the server's last write progress *)
  mutable stalled : bool;           (* closed after drain_stall_us of none *)
  rd : Protocol.resp_reader;
  mutable resps : Protocol.response list;  (* newest first *)
  mutable stamps : (float * int) list;
      (* per response: when its last byte was written, and the seq the
         link had acked then *)
  doomed : bool;                    (* may vanish mid-pipeline *)
  mutable reset : bool;
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

let new_client rng ~kind ?wire cid reqs =
  let rendered = Array.map Protocol.render_request reqs in
  let ends = Array.make (Array.length reqs) 0 in
  Array.iteri
    (fun i s -> ends.(i) <- (if i = 0 then 0 else ends.(i - 1)) + String.length s)
    rendered;
  { cid; kind; reqs; ends; sent = 0; taken = 0; state = Idle;
    wire = Option.value wire ~default:(String.concat "" (Array.to_list rendered));
    cap = List.nth [ 8; 64; 4096 ] (Random.State.int rng 3); out = "";
    wrote_at = 0.0; stalled = false; rd = Protocol.resp_reader (); resps = []; stamps = [];
    doomed = kind = Client && Random.State.int rng 5 = 0; reset = false;
    half_close = Random.State.bool rng; eof = false }

let gen_client rng ~trigger cid =
  let reqs = Array.init (1 + Random.State.int rng 10) (gen_request rng ~cid) in
  new_client rng ~kind:Client cid
    (if trigger = Some cid then Array.append reqs [| Protocol.Shutdown |] else reqs)

let parsed c = Array.fold_left (fun n e -> if e <= c.taken then n + 1 else n) 0 c.ends

(* ------------------------------------------------------------------ *)
(* the checker *)

(* [appended_at]: seq -> the time of its commit; [fenced_from]: the
   first seq a fence may hold; [emitted]: the frames the replica read *)
let check srv ~stores ~clients ~flood ~appended_at ~fenced_from ~timeouts ~emitted =
  let log = Server.repl_log srv in
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
    (Log.to_list log);
  let state k j = if j = 0 then None else hist.(k).(j - 1) in
  let top k = Array.length hist.(k) in
  (* the writes answered as failed *)
  let failed_write = Hashtbl.create 64 in
  (* a connection refused at the fd cap: the server read none of it *)
  let cap = (Server.stats srv).Server.s_fd_cap in
  let refusal = Protocol.Error_msg (Printf.sprintf "too many connections (fd cap %d)" cap) in
  let refused c = c.taken = 0 && c.resps = [ refusal ] in
  List.iter (fun c -> if not (refused c || c.resps = []) then fail "flood %d answered" c.cid) flood;
  List.iter
    (fun c ->
      let resps = Array.of_list (List.rev c.resps) in
      let stamps = Array.of_list (List.rev c.stamps) in
      let n = parsed c in
      if not (c.reset || c.stalled) && Array.length resps <> n then
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
        let late = at >= Hashtbl.find appended_at seq +. Core.fence_timeout_us in
        if seq >= fenced_from && acked < seq && not late then
          fail "client %d: reply %d left at %.0f, seq %d unacked (acked %d)" c.cid i at seq acked
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
      let guards k e = function Protocol.T_cas (k', e', _) -> k = k' && e = e' | _ -> false in
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
            when ta_expected <> ta_found && List.exists (guards ta_key ta_expected) ops ->
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
            let seqs = List.map (fun v -> let _, _, s = Hashtbl.find put_at v in s) (puts ops) in
            let writes = List.filter (function Protocol.T_get _ -> false | _ -> true) ops in
            (match seqs with
            | [] -> ()
            | s :: _ ->
              let lo = List.fold_left min s seqs and hi = List.fold_left max s seqs in
              if hi - lo >= List.length writes then
                fail "client %d: txn %d committed as a split run" c.cid i)
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
    (List.filter (fun c -> not (refused c)) clients);
  (* a write answered as refused never reaches the log *)
  Hashtbl.iter
    (fun v () -> if Hashtbl.mem put_at v then fail "refused write %S was committed" v)
    failed_write;
  (* every store holds what the log says *)
  let n = Array.length stores in
  for k = 0 to keys - 1 do
    let st = stores.(k mod n) in
    let buf = st.Server.st_alloc vsize in
    let got =
      match st.Server.st_call "mc_get" [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr buf ] with
      | Ok v when Rvalue.truthy v -> Some (st.Server.st_read buf vsize)
      | Ok _ -> None
      | Error m -> fail "final read of key %d: %s" k m
    in
    let pad v = v ^ String.make (vsize - String.length v) '\000' in
    if got <> Option.map pad (state k (top k)) then
      fail "key %d: the store disagrees with the log" k
  done;
  let counted = (Server.stats srv).Server.s_fence_timeouts in
  if counted <> timeouts then
    fail "the cores counted %d fence timeouts, the schedule caused %d" counted timeouts;
  (* the link's stream: the handshake, then the log from seq 1, in order *)
  (match emitted with
  | [] -> ()
  | Delta.Ok_hello 1 :: frames ->
    List.iteri
      (fun i f ->
        match f with
        | Delta.Frame { d; sealed } ->
          let d =
            match d.Delta.op with
            | Delta.Put ({ color; payload; _ } as p) when sealed -> (
              let key = Seal.derive ~cluster:"privagic" color in
              match Seal.unseal ~key ~nonce:d.Delta.seq payload with
              | Ok payload -> { d with Delta.op = Delta.Put { p with payload } }
              | Error e -> fail "link frame %d: %s" d.Delta.seq e)
            | _ -> d
          in
          if d.Delta.seq <> i + 1 || Log.get log (i + 1) <> Some d then
            fail "link frame %d is not log entry %d" d.Delta.seq (i + 1)
        | _ -> fail "link: stray handshake or corrupt frame")
      frames
  | _ -> fail "link: the stream does not start with REPLOK 1");
  let count p = List.length (List.filter p (clients @ flood)) in
  note "responses checked" (List.fold_left (fun n c -> n + List.length c.resps) 0 clients);
  note "link frames" (List.length emitted);
  note "fence timeouts" timeouts;
  note "refusals at the fd cap" (count refused);
  (* closed by the drain before its loop read a byte of it *)
  note "connections the drain closed unread"
    (count (fun c -> c.state = Closed && c.sent > 0 && c.taken = 0 && c.resps = []))

(* ------------------------------------------------------------------ *)
(* one schedule *)

(* what the server holds, by fd *)
type endpoint = Listen | Wake of int ref | Conn of client

let run_schedule seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let shards = pick [ 1; 2; 4 ] in
  let cfg =
    { Server.default_config with shards; vsize; queue_depth = pick [ 1; 64 ];
      policy = pick [ Server.Block; Server.Shed ]; max_batch = pick [ 1; 8 ] }
  in
  let p = Lazy.force plan in
  let store _ = let s = Server.store_of_pinterp (Pinterp.create p) in Test_server.init_store s; s in
  let stores = Array.init shards store in
  (* the network *)
  let now = ref 0.0 and fds = Hashtbl.create 64 and closed = Hashtbl.create 64 in
  let new_fd e = Hashtbl.replace fds (Hashtbl.length fds) e; Hashtbl.length fds - 1 in
  let backlog = Queue.create () and listening = ref true and open_conns = ref 0 in
  let sleeping = Array.make shards None and cur = ref 0 in
  (* set once the server exists: what the link acked, and the fence scan *)
  let acked_now = ref (fun () -> max_int) and on_link = ref ignore in
  let live fd =
    if Hashtbl.mem closed fd then fail "fd %d used after its close" fd;
    match Hashtbl.find fds fd with Conn { kind = Replica; _ } as e -> !on_link (); e | e -> e
  in
  let readable fd =
    match Hashtbl.find fds fd with
    | Listen -> not (Queue.is_empty backlog)
    | Wake p -> !p > 0
    | Conn c -> c.reset || c.eof || c.taken < c.sent
  in
  let writable fd =
    match Hashtbl.find fds fd with Conn c -> c.reset || String.length c.out < c.cap | _ -> true
  in
  let error e call = raise (Unix.Unix_error (e, call, "")) in
  let io =
    { Server.select =
        (fun rd wr timeout ->
          List.iter (fun fd -> ignore (live fd)) (rd @ wr);
          let r = List.filter readable rd and w = List.filter writable wr in
          if r = [] && w = [] && timeout <> 0.0 then begin
            let d = if timeout < 0.0 then infinity else !now +. (timeout *. 1e6) in
            sleeping.(!cur) <- Some (rd, wr, d);
            raise Asleep
          end;
          (r, w));
      read =
        (fun fd buf off len ->
          match live fd with
          | Wake p when !p > 0 -> let n = min len !p in p := !p - n; n
          | Wake _ -> error Unix.EAGAIN "read"
          | Conn c when c.reset -> note "resets" 1; error Unix.ECONNRESET "read"
          | Conn c when c.taken < c.sent && int 8 > 0 ->
            let n = 1 + int (min len (c.sent - c.taken)) in
            Bytes.blit_string c.wire c.taken buf off n;
            c.taken <- c.taken + n;
            n
          | Conn c when c.taken = c.sent && c.eof -> 0
          | _ -> note "EAGAINs" 1; error Unix.EAGAIN "read");
      write =
        (fun fd buf off len ->
          match live fd with
          | Wake p -> p := !p + len; len
          | Conn c when c.reset -> note "resets" 1; error Unix.EPIPE "write"
          | Conn c when String.length c.out < c.cap ->
            let n = min len (c.cap - String.length c.out) in
            let n = if n > 1 && int 4 = 0 then 1 + int (n - 1) else n in
            if n < len then note "short writes" 1;
            c.out <- c.out ^ Bytes.sub_string buf off n;
            c.wrote_at <- !now;
            (* all a replica reads before it is heard is a refusal *)
            if c.kind <> Replica || c.taken = 0 then begin
              let got = Protocol.feed_resp c.rd (Bytes.sub buf off n) n and a = !acked_now () in
              c.resps <- List.rev_append got c.resps;
              c.stamps <- List.rev_append (List.map (fun _ -> (!now, a)) got) c.stamps
            end;
            n
          | _ -> note "EAGAINs" 1; error Unix.EAGAIN "write");
      accept =
        (fun fd ->
          match (live fd, Queue.take_opt backlog) with
          | _, None -> error Unix.EAGAIN "accept"
          | _, Some c -> c.state <- Open; c.wrote_at <- !now; incr open_conns; new_fd (Conn c));
      close =
        (fun fd ->
          (match live fd with
          | Listen ->
            listening := false;
            Queue.(iter (fun c -> c.state <- Lost) backlog; clear backlog)
          | Wake _ -> ()
          | Conn c ->
            decr open_conns;
            c.state <- Closed;
            c.stalled <- !now -. c.wrote_at >= drain_stall_us);
          Hashtbl.replace closed fd ());
      pipe = (fun () -> let p = ref 0 in let r = new_fd (Wake p) in (r, new_fd (Wake p)));
      clock = (fun () -> !now) }
  in
  let bnd = Option.get (Server.bindings_of_plan p) in
  let srv = Server.create io ~listen:(new_fd Listen) cfg bnd stores in
  let hub = Server.repl_hub srv and log = Server.repl_log srv and cores = Server.cores srv in
  let fd_cap = (Server.stats srv).Server.s_fd_cap in
  (acked_now :=
     fun () ->
       let rec go q = if Shipper.synced hub ~seq:q then q else go (q - 1) in
       if Shipper.synced hub ~seq:(Log.head log) then max_int else go (Log.head log));
  (* A fence times out when its core releases it unacked. Scanned after
     every step and before each use of the replica's socket, the only
     moments the acks can move: a fence gone since the last scan went
     while they stood as they stand now. *)
  let timeouts = ref 0 and seen = Array.make shards [] in
  let scan () =
    Array.iteri
      (fun k c ->
        let held = List.of_seq (Queue.to_seq c.Core.fences) in
        let gone (_, seq, _) = not (Shipper.synced hub ~seq) in
        List.iter (fun f -> if not (List.memq f held) && gone f then incr timeouts) seen.(k);
        seen.(k) <- held)
      cores
  in
  on_link := scan;
  (* the commit time of each seq: the clock stands still during a step *)
  let appended_at = Hashtbl.create 64 and stamped = ref 0 and fenced_from = ref max_int in
  let stamp () =
    for q = !stamped + 1 to Log.head log do Hashtbl.replace appended_at q !now done;
    stamped := Log.head log;
    (* writes before the link attached were never fenced *)
    if !fenced_from = max_int && Shipper.connected hub > 0 then fenced_from := !stamped + 1
  in
  let n_clients = 1 + int 6 in
  (* half the schedules end one client's pipeline in [shutdown] *)
  let trigger = if Random.State.bool rng then Some (int n_clients) else None in
  let clients = ref (List.init n_clients (gen_client rng ~trigger)) in
  (* the replica end of a sync link: it reads frames, acks a prefix *)
  let reader = Delta.reader () and emitted = ref [] and received = ref 0 and acked = ref 0 in
  let hello = Delta.render_hello ~sync:true ~from_seq:1 in
  if Random.State.bool rng then
    clients := new_client rng ~kind:Replica 99 [||] ~wire:hello :: !clients;
  let floods = int 25 = 0 and flood = ref [] in
  (* with no pipelined shutdown, an operator may send one after this many steps *)
  let drain_after = int 200 in
  let draining () = Server.is_draining srv and exited = Array.make shards false in
  let runnable k =
    match sleeping.(k) with
    | Some (rd, wr, d) -> d <= !now || List.exists readable rd || List.exists writable wr
    | None -> not exited.(k)
  in
  let iterate k =
    sleeping.(k) <- None;
    cur := k;
    match Server.iterate srv k with running -> exited.(k) <- not running | exception Asleep -> ()
  in
  let connect c = c.state <- Queued; Queue.push c backlog in
  let read c =
    let n = 1 + int (String.length c.out) in
    let b = String.sub c.out 0 n in
    c.out <- String.sub c.out n (String.length c.out - n);
    let frame f =
      emitted := f :: !emitted;
      match f with Delta.Frame { d; _ } -> received := d.Delta.seq | _ -> ()
    in
    if c.kind = Replica && c.taken > 0 then
      List.iter frame (Delta.feed reader (Bytes.of_string b) n)
  in
  let actions steps =
    let acts = ref [] in
    let add w f = acts := (w, f) :: !acts in
    for k = 0 to shards - 1 do if runnable k then add 6 (fun () -> iterate k) done;
    List.iter
      (fun c ->
        (match c.state with
        | Idle -> if !listening then add 4 (fun () -> connect c)
        | (Queued | Open) when not c.reset ->
          let left = String.length c.wire - c.sent in
          if left > 0 then add 8 (fun () -> c.sent <- c.sent + 1 + int (min left 48));
          if left = 0 && c.half_close && (not c.eof) && not (draining ()) then
            add 2 (fun () -> c.eof <- true);
          if c.doomed && not (draining ()) then add 1 (fun () -> c.reset <- true);
          if c.kind = Replica && left = 0 && !received > !acked then
            add 3 (fun () ->
                acked := !acked + 1 + int (!received - !acked);
                c.wire <- c.wire ^ Delta.render_ack !acked;
                c.sent <- String.length c.wire)
        | _ -> ());
        if String.length c.out > 0 then add 6 (fun () -> read c))
      !clients;
    let deadline m = function Some (_, _, d) when d > !now -> Float.min m d | _ -> m in
    let d = Array.fold_left deadline infinity sleeping in
    if d < infinity then add 1 (fun () -> now := Float.ceil d);
    if floods && !flood = [] && not (draining ()) then
      add 1 (fun () ->
          flood := List.init (fd_cap + 1 + int 3) (fun i ->
              new_client rng ~kind:Flood (1000 + i) [||]);
          List.iter connect !flood);
    if List.exists (fun c -> not c.eof) !flood then
      add 1 (fun () -> List.iter (fun c -> c.eof <- true) !flood);
    let operator c = c.kind = Operator && (c.state = Queued || c.state = Open) in
    if (not (draining ())) && (not (List.exists operator !clients))
       && ((trigger = None && steps >= drain_after) || !acts = [])
    then
      add 1 (fun () ->
          let c = new_client rng ~kind:Operator (List.length !clients) [| Protocol.Shutdown |] in
          c.sent <- String.length c.wire;
          connect c;
          clients := c :: !clients);
    !acts
  in
  (* a pipeline holds at most one shutdown, as its last request *)
  let asked c =
    let n = Array.length c.reqs in
    n > 0 && c.reqs.(n - 1) = Protocol.Shutdown && parsed c = n
  in
  let rec loop steps =
    if steps = 100_000 then fail "no quiescence after 100000 steps";
    if not (Array.for_all Fun.id exited) then
      match actions steps with
      | [] -> fail "stuck: nothing can happen and not every loop exited"
      | acts ->
        let rec choose k = function
          | (w, f) :: rest -> if k < w then f else choose (k - w) rest | [] -> assert false in
        now := !now +. 1.0;
        choose (int (List.fold_left (fun n (w, _) -> n + w) 0 acts)) acts ();
        stamp ();
        scan ();
        if !open_conns > fd_cap then fail "%d connections open past the fd cap" !open_conns;
        if draining () && not (List.exists asked !clients) then
          fail "the drain started without a shutdown verb";
        (* no lost ack wakeup: a loop whose core's oldest held fence is
           acked must be runnable, or it would sleep until the deadline *)
        Array.iteri
          (fun k c ->
            match Queue.peek_opt c.Core.fences with
            | Some (_, seq, _) when Shipper.synced hub ~seq && not (runnable k) ->
              fail "shard %d sleeps on fence %d, which is acked" k seq
            | _ -> ())
          cores;
        loop (steps + 1)
  in
  loop 0;
  Server.wait srv;
  List.iter (fun c -> if c.state = Open then fail "client %d never closed" c.cid) !clients;
  if List.exists (fun c -> c.state = Open) !flood then fail "a flood connection never closed";
  if trigger <> None && not (List.exists (fun c -> c.kind = Operator) !clients) then
    note "drains by a pipelined shutdown" 1;
  check srv ~stores ~clients:!clients ~flood:!flood ~appended_at ~fenced_from:!fenced_from
    ~timeouts:!timeouts ~emitted:(List.rev !emitted)

let test_schedules () =
  let t0 = Unix.gettimeofday () in
  Hashtbl.reset tally;
  for i = 0 to schedules - 1 do
    let seed = !base_seed + i in
    try run_schedule seed
    with Violation m ->
      Alcotest.failf "schedule %d: %s\n  reproduce: dune exec test/main.exe -- test sim --seed %d"
        seed m seed
  done;
  Printf.printf "%d schedules: %s, in %.1f s\n%!" schedules
    (String.concat ", " (List.map (fun w -> Printf.sprintf "%d %s" (got w) w) paths))
    (Unix.gettimeofday () -. t0);
  (* a schedule that never delivers a request checks nothing, and a
     path no schedule reaches is not checked either *)
  if got "responses checked" < schedules then
    Alcotest.failf "only %d responses over %d schedules" (got "responses checked") schedules;
  List.iter (fun w -> if got w = 0 then Alcotest.failf "no %s over %d schedules" w schedules) paths

(* The single-writer rule: the first domain to step a loop owns its
   core. Over a network where nothing happens, a pass sleeps. *)
let test_owner () =
  let p = Lazy.force plan in
  let store = Server.store_of_pinterp (Pinterp.create p) in
  Test_server.init_store store;
  let io =
    { Server.select = (fun _ _ _ -> raise Asleep); read = (fun _ _ _ _ -> 0);
      write = (fun _ _ _ n -> n); accept = (fun () -> raise Exit); close = ignore;
      pipe = (fun () -> ((), ())); clock = (fun () -> 0.0) }
  in
  let cfg = { Server.default_config with vsize } in
  let srv = Server.create io ~listen:() cfg (Option.get (Server.bindings_of_plan p)) [| store |] in
  let pass () =
    match Server.iterate srv 0 with
    | _ -> "passed"
    | exception Asleep -> "slept"
    | exception Invalid_argument _ -> "refused"
  in
  Alcotest.(check string) "the owner's pass sleeps" "slept" (pass ());
  Alcotest.(check string) "a second domain is refused" "refused" (Domain.join (Domain.spawn pass));
  Alcotest.(check string) "the owner still steps it" "slept" (pass ())

let suite =
  [
    Alcotest.test_case "seeded schedules: FIFO, log order, atomicity, drain" `Quick
      test_schedules;
    Alcotest.test_case "single-writer rule: another domain is refused" `Quick test_owner;
  ]
