(* The sans-IO shard core (DESIGN.md §8.14): everything one shard of the
   served store decides, with no socket, thread, domain, clock or
   self-pipe in sight. The shell ([Server]) owns the IO: it turns
   readiness, inbox pops and the drain into [event]s, passes the
   time along with each call, and carries out the [effect]s the core
   emits. The seeded simulation (test/test_sim.ml) steps the shell's
   loops from one domain, which is what makes a schedule replayable.

   A core owns, and alone writes: its connections (parser, response
   slots, undispatched jobs, flags), its ingested inbox work, its held
   fences, its counters and histograms. [own] enforces that: the first
   domain to step a core owns it, and any other domain that steps it
   fails loudly.

   Shared state a core may touch, all of it on purpose:
   - its own and its peers' latches: the owner holds its latch per
     chunk (uncontended); only a multi-shard transaction takes the
     participants' latches, in ascending order (two-phase commit), and
     only a replica's link host takes the owner's latch to apply a
     delta. Whoever holds a latch publishes the shard's per-key table
     just before releasing it;
   - every shard's published table: a scan reads them all without
     taking any latch;
   - the commit log, appended while the latch is held, so per key log
     order is commit order;
   - a peer's inbox [depth] (admission) and [blocked_by] flags (the
     [Block] wait), and its [fenced] flag (an ack wakes it). *)

module Repl = Privagic_replication
module Metrics = Privagic_obs.Metrics
module Txn = Privagic_txn.Txn
module Index = Privagic_txn.Index
open Privagic_vm

module Types = struct
  type store = {
    st_name : string;
    st_call : string -> Rvalue.t list -> (Rvalue.t, string) result;
    st_alloc : int -> int;
    st_write : int -> string -> unit;
    st_read : int -> int -> string;
    st_register_obs : Privagic_obs.Registry.t -> unit;
        (* backend gauges (steps, externs, declassify counts)
           onto the server's registry *)
    st_attach_ring : Privagic_obs.Ring.t -> unit;  (* trace the backend *)
  }

  type bindings = {
    b_family : string;
    b_set : string;
    b_get : string;
    b_del : string option;
    b_init : string option;
    b_vcolor : string;
  }

  type policy = Block | Shed

  type config = {
    host : string;
    port : int;
    shards : int;
    queue_depth : int;
    policy : policy;
    max_batch : int;
    vsize : int;
    trace : bool;
    repl_window : int;
    repl_cluster : string;
  }

  type role = Primary | Replica_of of string
end

include Types

(* A connection may have at most this many parsed-but-unflushed requests
   before the shell stops reading it (pipelining flow control). *)
let max_pipeline = 512

(* One parsed request's response slot, in arrival order. Slots are
   filled out of order (a cross-shard request completes remotely) but
   flushed strictly in order. *)
type slot = { s_enq_at : float; mutable s_resp : Protocol.response option }

type conn = {
  c_id : int;
  c_owner : int;                    (* the shard whose core owns it *)
  c_reader : Protocol.reader;
  c_pending : slot Queue.t;         (* response slots, arrival order *)
  c_jobs : (slot * Protocol.request) Queue.t;  (* undispatched *)
  mutable c_inflight : int;         (* dispatched, unanswered *)
  mutable c_eof : bool;
  mutable c_quit : bool;
  mutable c_repl : (bool * int) option;  (* sync, from_seq *)
}

(* What one shard sends another through its inbox. A completion goes
   home to the connection's owner, which alone writes the slot; it is
   not counted in the inbox [depth], so it can never be refused. *)
type item =
  | Work of conn * slot * Protocol.request
  | Done of conn * slot * Protocol.response

type event =
  | Adopt of int                    (* a new connection, by id *)
  | Read of int * Bytes.t * int     (* bytes read on a connection *)
  | Eof of int                      (* the peer closed its side *)
  | Dead of int                     (* IO error: drop without replying *)
  | Inbox of item
  | Drain                           (* stop reading *)

type effect =
  | Write of int * string           (* response bytes for a connection *)
  | Close of int                    (* close it once its bytes are out *)
  | Handoff of int * bool * int     (* it becomes a replication link once
                                       its bytes are out: id, sync,
                                       from_seq *)
  | Send of int * item              (* push onto shard r's inbox *)
  | Wake of int                     (* wake shard k's loop *)
  | Shutdown                        (* the shutdown verb *)

(* Owner-written counters, summed over the shards when read. *)
type counters = {
  mutable gets : int;
  mutable sets : int;
  mutable dels : int;
  mutable hits : int;
  mutable shed : int;
  mutable bad : int;
  mutable batches : int;
  mutable coalesced : int;
  mutable getv : int;
  mutable cas : int;
  mutable cas_conflicts : int;
  mutable txns : int;
  mutable txn_aborts : int;
  mutable scans : int;
  mutable scan_items : int;
  mutable xshard : int;             (* requests that crossed shards *)
  mutable fence_timeouts : int;     (* fences released by their deadline *)
}

(* Request spans, when traced. The names are interned in this order,
   so a span's name id is its index here. *)
type tracer = { span : 'a. int -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let span_names = [| "get"; "set"; "del"; "getv"; "cas"; "txn"; "txn2pc"; "scan" |]
let sp_get = 0 and sp_set = 1 and sp_del = 2 and sp_getv = 3 and sp_cas = 4
and sp_txn = 5 and sp_txn2pc = 6 and sp_scan = 7

type t = {
  id : int;
  g : group;
  store : store;
  txn : Txn.t;                      (* the per-key table; under latch *)
  vbuf : int;
  obuf : int;
  latch : Mutex.t;
  depth : int Atomic.t;             (* admitted, unconsumed inbox work *)
  blocked_by : bool Atomic.t array; (* shards waiting on our depth *)
  fenced : bool Atomic.t;           (* we hold a fence: an ack wakes us *)
  tracer : tracer;
  mutable owner : int;              (* domain that first stepped us *)
  mutable now : float;              (* µs, from the latest call *)
  mutable conns : conn list;
  by_id : (int, conn) Hashtbl.t;
  work : (conn * slot * Protocol.request) Queue.t;  (* ingested inbox work *)
  fences : ((conn * slot * Protocol.response) list * int * float) Queue.t;
      (* held fills, with the seq they wait for and their deadline *)
  mutable executed : float list;
      (* enqueue times of requests answered since the last call: their
         latency closes at the next call's time, after the execution *)
  mutable batch : (conn * slot * Protocol.request) list;  (* reversed *)
  mutable batch_n : int;
  mutable round_n : int;            (* local jobs this round ([Shed]) *)
  mutable draining : bool;
  n : counters;
  latency : Metrics.histogram;
  qwait : Metrics.histogram;
  scan_len : Metrics.histogram;     (* items returned per scan *)
}

and group = {
  cfg : config;
  bnd : bindings;
  log : Repl.Log.t;                 (* shared: one merged sequence *)
  role : role Atomic.t;
  synced : int -> bool;             (* every sync replica acked seq *)
  info : Protocol.request -> Protocol.response;  (* stats verbs *)
  self : unit -> int;               (* the calling domain's id *)
  mutable cores : t array;
}

let create g i store tracer =
  let cfg = g.cfg in
  {
    id = i;
    g;
    store;
    (* contract (see Txn.create): the bound stores must be empty when
       the server starts — there is no enumeration entry point to
       backfill the per-key table from *)
    txn = Txn.create ~value_color:g.bnd.b_vcolor ();
    vbuf = store.st_alloc (max 1 cfg.vsize);
    obuf = store.st_alloc (max 1 cfg.vsize);
    latch = Mutex.create ();
    depth = Atomic.make 0;
    blocked_by = Array.init cfg.shards (fun _ -> Atomic.make false);
    fenced = Atomic.make false;
    tracer;
    owner = -1;
    now = 0.0;
    conns = [];
    by_id = Hashtbl.create 16;
    work = Queue.create ();
    fences = Queue.create ();
    executed = [];
    batch = [];
    batch_n = 0;
    round_n = 0;
    draining = false;
    n =
      { gets = 0; sets = 0; dels = 0; hits = 0; shed = 0; bad = 0; batches = 0;
        coalesced = 0; getv = 0; cas = 0; cas_conflicts = 0; txns = 0;
        txn_aborts = 0; scans = 0; scan_items = 0; xshard = 0; fence_timeouts = 0 };
    latency = Metrics.histogram "server latency (us)";
    qwait = Metrics.histogram "queue wait (us)";
    scan_len = Metrics.histogram "scan length (items)";
  }

(* One core per store; shard [i] owns [stores.(i)]. *)
let group ~cfg ~bnd ~log ~role ~synced ~info ~self ?(tracer = fun _ -> untraced)
    stores =
  let g = { cfg; bnd; log; role; synced; info; self; cores = [||] } in
  g.cores <- Array.mapi (fun i st -> create g i st (tracer i)) stores;
  g

(* The single-writer rule, checked: one int compare per call. *)
let own t =
  let d = t.g.self () in
  if d <> t.owner then
    if t.owner < 0 then t.owner <- d
    else
      invalid_arg
        (Printf.sprintf "Core: shard %d is owned by domain %d, called from %d"
           t.id t.owner d)

let shard_of g key = key mod Array.length g.cores

let is_replica g =
  match Atomic.get g.role with Primary -> false | Replica_of _ -> true

(* ------------------------------------------------------------------ *)
(* execution: entry calls on this shard's store, under its latch *)

let exec_set t key v =
  let vsize = t.g.cfg.vsize in
  if String.length v > vsize then
    Protocol.Error_msg (Printf.sprintf "value exceeds program value size %d" vsize)
  else begin
    (* the program copies exactly vsize bytes: zero-pad the tail *)
    let padded =
      if String.length v = vsize then v
      else v ^ String.make (vsize - String.length v) '\000'
    in
    t.store.st_write t.vbuf padded;
    match
      t.store.st_call t.g.bnd.b_set [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr t.vbuf ]
    with
    | Ok _ -> Protocol.Stored
    | Error m -> Protocol.Error_msg ("exec: " ^ m)
  end

let exec_get t key =
  match
    t.store.st_call t.g.bnd.b_get [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr t.obuf ]
  with
  | Ok v when Rvalue.truthy v ->
    let len =
      match Txn.length t.txn key with Some n -> n | None -> t.g.cfg.vsize
    in
    Protocol.Value (key, t.store.st_read t.obuf len)
  | Ok _ -> Protocol.Miss
  | Error m -> Protocol.Error_msg ("exec: " ^ m)

let exec_del t key =
  match t.g.bnd.b_del with
  | None ->
    Protocol.Error_msg
      (Printf.sprintf "del not supported by the %s program" t.g.bnd.b_family)
  | Some entry -> (
    match t.store.st_call entry [ Rvalue.Int (Int64.of_int key) ] with
    | Ok v when Rvalue.truthy v -> Protocol.Deleted
    | Ok _ -> Protocol.Not_found
    | Error m -> Protocol.Error_msg ("exec: " ^ m))

(* Commit choke points: every committed write — client set/del, replica
   apply, CAS, transaction — advances the owning shard's per-key table
   here, under that shard's latch. [exec_get] reads the stored length
   from the same table, so a key's length is recorded by its commit
   hook, never by [exec_set] alone.
   Primaries and replicas run the same hooks, which is what makes
   replicas converge on versions and tables too, not only on bytes. *)
let commit_set t key v =
  match exec_set t key v with
  | Protocol.Stored ->
    Txn.note_put t.txn ~key ~value:v;
    Protocol.Stored
  | r -> r

let commit_del t key =
  match exec_del t key with
  | Protocol.Deleted ->
    Txn.note_del t.txn ~key;
    Protocol.Deleted
  | r -> r

(* The txn executor reads and writes through the shard's own entry
   points (classify/declassify still mediate every value). Writes use
   the raw exec paths: [Txn.execute] runs the note hooks itself. *)
let store_ops t =
  let unexpected what = Error ("unexpected " ^ what ^ " response") in
  {
    Txn.o_get =
      (fun k ->
        match exec_get t k with
        | Protocol.Value (_, v) -> Ok (Some v)
        | Protocol.Miss -> Ok None
        | Protocol.Error_msg m -> Error m
        | _ -> unexpected "get");
    o_set =
      (fun k v ->
        match exec_set t k v with
        | Protocol.Stored -> Ok ()
        | Protocol.Error_msg m -> Error m
        | _ -> unexpected "set");
    o_del =
      (fun k ->
        match exec_del t k with
        | Protocol.Deleted -> Ok true
        | Protocol.Not_found -> Ok false
        | Protocol.Error_msg m -> Error m
        | _ -> unexpected "del");
    (* applicability limits, so [Txn.execute] rejects a doomed write in
       its validate phase instead of failing mid-apply *)
    o_max_value = t.g.cfg.vsize;
    o_can_del = t.g.bnd.b_del <> None;
  }

(* Publish a shard's table, then release its latch: a published table
   shows only whole latch holds. *)
let release_latch t =
  Txn.publish t.txn;
  Mutex.unlock t.latch

(* Take the latches of the (ascending) shard ids in [ids], run [f],
   release in reverse. Ascending order is the 2PC deadlock-freedom
   argument: two cross-shard commits always contend in the same order. *)
let with_latches g ids f =
  List.iter (fun i -> Mutex.lock g.cores.(i).latch) ids;
  Fun.protect f ~finally:(fun () ->
      List.iter (fun i -> release_latch g.cores.(i)) (List.rev ids))

let txn_shard_ids g ops =
  List.sort_uniq compare
    (List.map
       (function
         | Protocol.T_get k | Protocol.T_set (k, _) | Protocol.T_del k
         | Protocol.T_cas (k, _, _) -> shard_of g k)
       ops)

let write_key = function Txn.W_put { w_key; _ } | Txn.W_del { w_key } -> w_key

(* The state of one execution under a latch hold: a get cache that
   chunk writes keep exact, and the highest delta seq it committed. *)
type cx = { cache : (int, Protocol.response) Hashtbl.t; mutable max_seq : int }

(* A committed write run goes to the log as one contiguous batch — the
   atomic-commit delta batch of the txn layer. *)
let commit cx g writes =
  if writes <> [] then begin
    let delta = function
      | Txn.W_put { w_key; w_value } ->
        Repl.Delta.Put { key = w_key; color = g.bnd.b_vcolor; payload = w_value }
      | Txn.W_del { w_key } -> Repl.Delta.Del { key = w_key }
    in
    cx.max_seq <- max cx.max_seq (Repl.Log.append_batch g.log (List.map delta writes))
  end

let remember cx writes =
  List.iter
    (function
      | Txn.W_put { w_key; w_value } ->
        Hashtbl.replace cx.cache w_key (Protocol.Value (w_key, w_value))
      | Txn.W_del { w_key } -> Hashtbl.replace cx.cache w_key Protocol.Miss)
    writes

(* Any applied prefix of a failed transaction is committed state: ship
   it, or replicas diverge from the primary's versions. *)
let failed cx g msg applied =
  commit cx g applied;
  List.iter (fun w -> Hashtbl.remove cx.cache (write_key w)) applied;
  Protocol.Error_msg ("exec: " ^ msg)

let note_hit t = function Protocol.Value _ -> t.n.hits <- t.n.hits + 1 | _ -> ()

(* A transaction. A single-shard one runs on this shard under its
   latch; one that straddles shards runs under every participant latch,
   validating against all of them (phase 1) and applying only if all
   validated (phase 2) — [Txn.execute_routed] does both phases. *)
let exec_txn t cx ops =
  let g = t.g in
  t.n.txns <- t.n.txns + 1;
  let outcome =
    match txn_shard_ids g ops with
    | [ i ] when i = t.id ->
      t.tracer.span sp_txn (fun () -> Txn.execute t.txn (store_ops t) ops)
    | ids ->
      let coord = match ids with [] -> t.txn | i :: _ -> g.cores.(i).txn in
      let route k =
        let c = g.cores.(shard_of g k) in
        (c.txn, store_ops c)
      in
      with_latches g ids (fun () ->
          t.tracer.span sp_txn2pc (fun () -> Txn.execute_routed ~route ~coord ops))
  in
  match outcome with
  | Txn.Committed (results, writes) ->
    commit cx g writes;
    remember cx writes;
    Protocol.Txn_reply results
  | Txn.Aborted { a_key; a_expected; a_found } ->
    t.n.txn_aborts <- t.n.txn_aborts + 1;
    Protocol.Txn_abort { ta_key = a_key; ta_expected = a_expected; ta_found = a_found }
  | Txn.Failed { f_msg; f_applied } -> failed cx g f_msg f_applied

(* A scan merges the shards' published tables with one bounded walk,
   taking no latch. Each shard's part is atomic (a published table shows
   whole latch holds), and the connection barrier that runs a scan only
   once the connection's earlier requests answered makes it see their
   writes: a reply leaves only after its chunk published. The items
   leave as they are: a secret-colored key carries no value bytes. *)
let exec_scan t ~start ~stop ~limit =
  t.n.scans <- t.n.scans + 1;
  let items =
    t.tracer.span sp_scan (fun () ->
        Index.range
          (Array.map (fun c -> Txn.published c.txn) t.g.cores)
          ~start ~stop ~limit)
  in
  let n = List.length items in
  t.n.scan_items <- t.n.scan_items + n;
  Metrics.observe t.scan_len (float_of_int n);
  Protocol.Scan_reply items

(* One request. Duplicate gets inside a chunk are served from the
   cache — exact, because the chunk runs atomically under the latch and
   its writes refresh the cache in order. *)
let exec_req t cx req =
  let g = t.g and n = t.n and span = t.tracer.span in
  match req with
  | Protocol.Get k -> (
    n.gets <- n.gets + 1;
    match Hashtbl.find_opt cx.cache k with
    | Some r ->
      n.coalesced <- n.coalesced + 1;
      note_hit t r;
      r
    | None ->
      let r = span sp_get (fun () -> exec_get t k) in
      note_hit t r;
      Hashtbl.replace cx.cache k r;
      r)
  | Protocol.Set (k, v) ->
    n.sets <- n.sets + 1;
    let r = span sp_set (fun () -> commit_set t k v) in
    (match r with
    | Protocol.Stored ->
      let w = [ Txn.W_put { w_key = k; w_value = v } ] in
      commit cx g w;
      remember cx w
    | _ -> Hashtbl.remove cx.cache k);
    r
  | Protocol.Del k ->
    n.dels <- n.dels + 1;
    let r = span sp_del (fun () -> commit_del t k) in
    (match r with
    | Protocol.Deleted ->
      (* Not_found has no visible effect, so it ships no delta *)
      commit cx g [ Txn.W_del { w_key = k } ];
      Hashtbl.replace cx.cache k Protocol.Miss
    | Protocol.Not_found -> Hashtbl.replace cx.cache k Protocol.Miss
    | _ -> Hashtbl.remove cx.cache k);
    r
  | Protocol.Getv k -> (
    n.getv <- n.getv + 1;
    (* version first: both are read under the same latch hold *)
    let ver = Txn.version t.txn k in
    match span sp_getv (fun () -> exec_get t k) with
    | Protocol.Value (_, v) ->
      n.hits <- n.hits + 1;
      Protocol.Version { v_key = k; v_ver = ver; v_val = Some v }
    | Protocol.Miss -> Protocol.Version { v_key = k; v_ver = ver; v_val = None }
    | r -> r)
  | Protocol.Cas { c_key; c_ver; c_val } -> (
    n.cas <- n.cas + 1;
    match
      span sp_cas (fun () ->
          Txn.execute t.txn (store_ops t) [ Txn.T_cas (c_key, c_ver, c_val) ])
    with
    | Txn.Committed (_, writes) ->
      commit cx g writes;
      remember cx writes;
      Protocol.Stored
    | Txn.Aborted { a_expected; a_found; _ } ->
      n.cas_conflicts <- n.cas_conflicts + 1;
      if a_found = 0 && a_expected > 0 then Protocol.Not_found
      else Protocol.Cas_conflict a_found
    | Txn.Failed { f_msg; f_applied } -> failed cx g f_msg f_applied)
  | Protocol.Txn ops -> exec_txn t cx ops
  | Protocol.Scan { sc_start; sc_stop; sc_limit } ->
    exec_scan t ~start:sc_start ~stop:sc_stop ~limit:sc_limit
  | Protocol.Stats | Protocol.Stats_metrics | Protocol.Quit | Protocol.Shutdown
  | Protocol.Repl _ ->
    (* answered at parse time, never routed *)
    Protocol.Error_msg "internal: non-routable verb in shard chunk"

(* ------------------------------------------------------------------ *)
(* completions *)

(* Answer a slot. A foreign connection's slot is written by its owner,
   from a [Done] message. *)
let finish t ~emit (c, p, resp) =
  if c.c_owner = t.id then begin
    p.s_resp <- Some resp;
    c.c_inflight <- c.c_inflight - 1
  end
  else emit (Send (c.c_owner, Done (c, p, resp)))

(* The shard that executed a request takes its latency sample, so the
   merged histogram counts each request once. *)
let observe t (_, p, _) = Metrics.observe t.latency (t.now -. p.s_enq_at)

(* Answer a run of slots, then wake each foreign owner once. *)
let finish_all t ~emit fills =
  List.iter (finish t ~emit) fills;
  List.filter_map (fun (c, _, _) -> if c.c_owner = t.id then None else Some c.c_owner) fills
  |> List.sort_uniq compare
  |> List.iter (fun o -> emit (Wake o))

(* A sync fence waits this long (µs) for the acks before its fills are
   released anyway and counted as a timeout: a wedged sync replica
   degrades to async instead of wedging the primary. *)
let fence_timeout_us = 5e6

(* Sync replication: a run that committed writes is held until every
   live sync replica acknowledged them (read-your-writes on replica
   reads), behind any fence already held. The shard keeps executing
   meanwhile; [release] lets the fills go. *)
let complete t ~emit cx fills =
  if cx.max_seq > 0 && not (Queue.is_empty t.fences && t.g.synced cx.max_seq) then
    Queue.push (fills, cx.max_seq, t.now +. fence_timeout_us) t.fences
  else begin
    (* their latency closes at the next call, after the execution *)
    List.iter (fun (_, p, _) -> t.executed <- p.s_enq_at :: t.executed) fills;
    finish_all t ~emit fills
  end

(* Release held fences, oldest first, while the head one is acked or
   past its deadline. A fence still held raises [fenced], then
   re-checks: either the re-check sees the ack, or the host of the link
   that acked sees the flag and wakes us ([wake_fenced]). *)
let rec release t ~emit =
  match Queue.peek_opt t.fences with
  | None -> ()
  | Some (fills, seq, deadline) ->
    let synced = t.g.synced seq in
    if synced || t.now >= deadline then begin
      ignore (Queue.pop t.fences);
      if not synced then t.n.fence_timeouts <- t.n.fence_timeouts + 1;
      List.iter (observe t) fills;
      finish_all t ~emit fills;
      release t ~emit
    end
    else if not (Atomic.get t.fenced) then begin
      Atomic.set t.fenced true;
      release t ~emit
    end

(* A sync link's ack advanced, or it died: wake every shard that holds
   a fence. Called by the link's host. *)
let wake_fenced t ~emit =
  Array.iter (fun c -> if Atomic.exchange c.fenced false then emit (Wake c.id)) t.g.cores

let fresh_cx () = { cache = Hashtbl.create 8; max_seq = 0 }

(* Execute one chunk of same-shard requests under the latch. *)
let exec_chunk t ~emit chunk =
  t.n.batches <- t.n.batches + 1;
  let cx = fresh_cx () in
  Mutex.lock t.latch;
  let fills =
    List.map
      (fun (c, p, req) ->
        Metrics.observe t.qwait (t.now -. p.s_enq_at);
        (c, p, exec_req t cx req))
      chunk
  in
  release_latch t;
  complete t ~emit cx fills

(* ------------------------------------------------------------------ *)
(* events *)

let answer t c resp = Queue.push { s_enq_at = t.now; s_resp = Some resp } c.c_pending

(* Locally-answerable verbs resolve at parse time; everything on the
   data path becomes an undispatched job. Response order is still
   arrival order: local answers occupy their slot like any other. *)
let parsed t ~emit c = function
  | `Bad m ->
    t.n.bad <- t.n.bad + 1;
    answer t c (Protocol.Error_msg m)
  | `Req r -> (
    match r with
    | Protocol.Stats | Protocol.Stats_metrics -> answer t c (t.g.info r)
    | Protocol.Quit ->
      (* memcached semantics: no reply; close once prior slots flush *)
      c.c_quit <- true;
      c.c_eof <- true
    | Protocol.Shutdown ->
      answer t c Protocol.Ok_msg;
      emit Shutdown
    | Protocol.Repl { r_sync; r_from } ->
      (* replication handshake: this connection leaves the request loop
         for good — once its slots flush, the shipper owns it. The
         replica sends nothing between its hello and the first frames,
         so the parse buffer is empty at the handoff. *)
      c.c_repl <- Some (r_sync, r_from);
      c.c_eof <- true
    | (Protocol.Set _ | Protocol.Del _ | Protocol.Cas _) when is_replica t.g ->
      (* replicas apply the primary's stream, never client writes *)
      answer t c (Protocol.Error_msg "read-only replica")
    | Protocol.Txn ops
      when is_replica t.g
           && List.exists (function Protocol.T_get _ -> false | _ -> true) ops ->
      (* read-only transactions are fine on a replica; writes are not *)
      answer t c (Protocol.Error_msg "read-only replica")
    | Protocol.Get _ | Protocol.Set _ | Protocol.Del _ | Protocol.Getv _
    | Protocol.Cas _ | Protocol.Scan _ | Protocol.Txn _ ->
      let p = { s_enq_at = t.now; s_resp = None } in
      Queue.push p c.c_pending;
      Queue.push (p, r) c.c_jobs)

(* Our inbox depth fell below the bound: wake every shard that
   announced it is blocked on us. *)
let wake_blocked t ~emit =
  Array.iteri
    (fun k flag -> if Atomic.exchange flag false then emit (Wake k))
    t.blocked_by

let with_conn t id f = Option.iter f (Hashtbl.find_opt t.by_id id)

let handle t ~now ~emit ev =
  own t;
  t.now <- now;
  release t ~emit;
  match ev with
  | Adopt id ->
    let c =
      { c_id = id; c_owner = t.id; c_reader = Protocol.reader ();
        c_pending = Queue.create (); c_jobs = Queue.create (); c_inflight = 0;
        c_eof = false; c_quit = false; c_repl = None }
    in
    Hashtbl.replace t.by_id id c;
    t.conns <- c :: t.conns
  | Read (id, buf, len) ->
    with_conn t id (fun c ->
        List.iter
          (fun item -> if (not c.c_quit) && c.c_repl = None then parsed t ~emit c item)
          (Protocol.feed c.c_reader buf len))
  | Eof id -> with_conn t id (fun c -> c.c_eof <- true)
  | Dead id ->
    (* its undispatched jobs go with it; a fill still in flight lands
       in a slot nobody reads *)
    Hashtbl.remove t.by_id id;
    t.conns <- List.filter (fun c -> c.c_id <> id) t.conns
  | Inbox (Work (c, p, req)) -> Queue.push (c, p, req) t.work
  | Inbox (Done (c, p, resp)) ->
    p.s_resp <- Some resp;
    c.c_inflight <- c.c_inflight - 1
  | Drain -> t.draining <- true

(* ------------------------------------------------------------------ *)
(* dispatch: route a connection's jobs in arrival order *)

(* Reserve a slot in shard [r]'s inbox. Under [Block] a full inbox
   puts us in the blocked-on-[r] state: we set our flag in
   [r.blocked_by], then re-check, so either the re-check sees [r] take
   a job off its inbox or [r] sees our flag when it does and wakes us.
   No lost wakeup, and no sleep. *)
let admit t r =
  let peer = t.g.cores.(r) in
  let rec reserve () =
    let cur = Atomic.get peer.depth in
    cur < t.g.cfg.queue_depth
    && (Atomic.compare_and_set peer.depth cur (cur + 1) || reserve ())
  in
  reserve ()
  || t.g.cfg.policy = Block
     && begin
       Atomic.set peer.blocked_by.(t.id) true;
       reserve ()
     end

(* The local batch executes as it fills: a chunk per [max_batch]. *)
let flush_batch t ~emit =
  if t.batch <> [] then begin
    let chunk = List.rev t.batch in
    t.batch <- [];
    t.batch_n <- 0;
    exec_chunk t ~emit chunk
  end

let shed t ~emit c p =
  t.n.shed <- t.n.shed + 1;
  let fill = (c, p, Protocol.Busy) in
  observe t fill;
  finish t ~emit fill

(* Dispatch a connection's jobs in arrival order until one cannot go
   yet. Local jobs join the batch; remote jobs go to the target inbox;
   a barrier (multi-shard txn, scan) runs inline once every earlier
   request of the connection has completed — that wait is what makes a
   cross-shard transaction see its own connection's earlier writes. A
   job whose target inbox is full under [Block] stays at the head of the
   queue until that shard wakes us; the rest of the shard runs on.
   Same-key requests always land in the same shard's FIFO, so per-key
   order holds. Returns whether any job left. *)
let dispatch_conn t ~emit c =
  let g = t.g and moved = ref false and stop = ref false in
  let take () =
    ignore (Queue.pop c.c_jobs);
    c.c_inflight <- c.c_inflight + 1;
    moved := true
  in
  while (not !stop) && not (Queue.is_empty c.c_jobs) do
    let p, req = Queue.peek c.c_jobs in
    let target =
      match req with
      | Protocol.Get k | Protocol.Set (k, _) | Protocol.Del k | Protocol.Getv k
      | Protocol.Cas { c_key = k; _ } -> shard_of g k
      | Protocol.Txn ops -> (
        match txn_shard_ids g ops with [ r ] -> r | _ -> -1)
      | _ -> -1 (* scans and multi-shard txns: barriers *)
    in
    if target = t.id then begin
      take ();
      if g.cfg.policy = Shed && t.round_n + Atomic.get t.depth >= g.cfg.queue_depth
      then shed t ~emit c p
      else begin
        t.round_n <- t.round_n + 1;
        t.batch <- (c, p, req) :: t.batch;
        t.batch_n <- t.batch_n + 1;
        if t.batch_n >= g.cfg.max_batch then flush_batch t ~emit
      end
    end
    else if target >= 0 then
      if admit t target then begin
        take ();
        t.n.xshard <- t.n.xshard + 1;
        emit (Send (target, Work (c, p, req)));
        emit (Wake target)
      end
      else if g.cfg.policy = Shed then begin
        take ();
        t.n.xshard <- t.n.xshard + 1;
        shed t ~emit c p
      end
      else stop := true
    else if c.c_inflight = 0 then begin
      take ();
      (match req with
      | Protocol.Txn ops when txn_shard_ids g ops <> [ t.id ] ->
        t.n.xshard <- t.n.xshard + 1
      | _ -> ());
      let cx = fresh_cx () in
      let resp = exec_req t cx req in
      complete t ~emit cx [ (c, p, resp) ]
    end
    else stop := true
  done;
  !moved

(* ------------------------------------------------------------------ *)
(* run: one round at a time, until a round finds nothing to do *)

(* Render the completed prefix of response slots, strictly in order. *)
let rec flush ~emit c =
  match Queue.peek_opt c.c_pending with
  | Some { s_resp = Some resp; _ } ->
    ignore (Queue.pop c.c_pending);
    emit (Write (c.c_id, Protocol.render resp));
    flush ~emit c
  | _ -> ()

(* Drop finished connections: closed ones once every slot flushed,
   replica handshakes handed off to become replication links. *)
let sweep t ~emit =
  t.conns <-
    List.filter
      (fun c ->
        let idle = Queue.is_empty c.c_pending in
        let keep =
          match c.c_repl with
          | Some (sync, from_seq) ->
            if idle then emit (Handoff (c.c_id, sync, from_seq));
            not idle
          | None ->
            if c.c_eof && idle then emit (Close c.c_id);
            not (c.c_eof && idle)
        in
        if not keep then Hashtbl.remove t.by_id c.c_id;
        keep)
      t.conns

(* Up to [n] ingested inbox jobs. A job counts in the inbox [depth]
   until it goes to execution, so the bound covers ingested work too. *)
let rec take_work t ~emit n =
  if n = 0 || Queue.is_empty t.work then []
  else begin
    if Atomic.fetch_and_add t.depth (-1) >= t.g.cfg.queue_depth then
      wake_blocked t ~emit;
    let x = Queue.pop t.work in
    x :: take_work t ~emit (n - 1)
  end

(* One round. First close the latency of what the previous round
   executed: this call's time is after the execution. Then execute the
   ingested inbox work, dispatch every connection and execute the local
   batch. Returns true when the round did anything: the caller calls
   again, with a later time, and a fill may have unblocked a barrier. A
   round with nothing to do flushes, sweeps and returns false. *)
let run t ~now ~emit =
  own t;
  t.now <- now;
  List.iter (fun e -> Metrics.observe t.latency (now -. e)) t.executed;
  t.executed <- [];
  release t ~emit;
  let worked = not (Queue.is_empty t.work) in
  while not (Queue.is_empty t.work) do
    exec_chunk t ~emit (take_work t ~emit t.g.cfg.max_batch)
  done;
  t.round_n <- 0;
  let moved = List.fold_left (fun m c -> dispatch_conn t ~emit c || m) false t.conns in
  flush_batch t ~emit;
  worked || moved
  || begin
    List.iter (flush ~emit) t.conns;
    sweep t ~emit;
    false
  end

let wants_read t id =
  own t;
  match Hashtbl.find_opt t.by_id id with
  | Some c ->
    (not (c.c_eof || t.draining))
    && Queue.length c.c_pending < max_pipeline
  | None -> false

(* The oldest held fence's deadline: the shell's select wakes by then. *)
let deadline t =
  own t;
  Option.map (fun (_, _, d) -> d) (Queue.peek_opt t.fences)

(* Our drain is over: no ingested work, no held fence, and every
   remaining connection answered. A cross-shard request keeps its
   owner unfinished until answered, so no loop exits while it is
   queued (the shell exits only once every core finished). *)
let finished t =
  own t;
  t.draining && Queue.is_empty t.work && Queue.is_empty t.fences
  && List.for_all (fun c -> Queue.is_empty c.c_pending) t.conns
