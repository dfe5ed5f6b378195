(* The serving shell around the partitioned runtime, sharded (ISSUE 10).

   The keyspace is hash-partitioned across N single-writer shards
   ([key mod shards]). Each shard owns, exclusively:
   - its own execution backend instance (a whole partitioned program:
     the callers build one store per shard),
   - its slice of the version table and the ordered/hash indexes
     (a [Txn.t] with a single index lane),
   - its value-length table and its scratch value buffers,
   - an event loop, running on its own domain.

   There is no global store mutex. Each shard has a latch that its own
   event loop holds while executing a batch — uncontended on the hot
   path, because only the owner takes it. The latch exists for the
   slow paths that must reach into a shard from outside its loop:
   cross-shard transactions (two-phase commit below), cross-shard scan
   cursors, and replica delta application.

   The event loop (one per shard) multiplexes with [Unix.select] over
   nonblocking sockets and an eventfd-style self-pipe — no timeout
   polling anywhere on the serving path; every blocking wait is woken
   explicitly (new conn, cross-shard work, cross-shard completion,
   drain). Connections are fully pipelined: every parsed request gets
   a response slot in arrival order, many can be in flight at once,
   and the flush path writes the completed prefix of slots so
   responses never reorder.

   Cross-shard requests are handed to the owning shard over a bounded
   Msqueue inbox (woken via the self-pipe). Per-connection ordering:
   requests are dispatched in arrival order and same-key requests
   always land in the same shard's FIFO, so per-key program order is
   preserved; a multi-shard transaction or scan acts as a connection
   barrier (it waits until the connection's earlier requests have
   completed) and then executes inline under every participant latch —
   phase 1 validates against all shards, phase 2 applies only if all
   validated (two-phase commit; latches are taken in ascending shard
   order, so cross-shard commits cannot deadlock).

   Replication: all shards append to one shared commit log (internally
   locked), while holding their latch — so the merged sequence is
   monotone and, per key, log order equals commit order. Replicas
   apply the merged stream in order, routing each delta to its shard;
   per-shard subsequences replay bit-exact against per-shard oracles. *)

module Tel = Privagic_telemetry
module Msq = Privagic_runtime.Msqueue
module Parallel = Privagic_parallel.Parallel
module Repl = Privagic_replication
module Obs = Privagic_obs
module Txn = Privagic_txn.Txn
module Index = Privagic_txn.Index
open Privagic_vm

type store = {
  st_name : string;
  st_call : string -> Rvalue.t list -> (Rvalue.t, string) result;
  st_alloc : int -> int;
  st_write : int -> string -> unit;
  st_read : int -> int -> string;
  st_drain : unit -> unit;
  st_register_obs : Obs.Registry.t -> unit;
      (* backend gauges (steps, externs, lane phases, declassify counts)
         onto the server's registry *)
}

let store_of_heap heap =
  let write addr s =
    String.iteri
      (fun i c -> Heap.store heap (addr + i) 1 (Int64.of_int (Char.code c)))
      s
  in
  let read addr n =
    String.init n (fun i ->
        Char.chr (Int64.to_int (Heap.load heap (addr + i) 1) land 0xff))
  in
  (write, read)

let store_of_parallel p =
  let heap = (Parallel.exec p).Exec.heap in
  let st_write, st_read = store_of_heap heap in
  {
    st_name = "parallel";
    st_call =
      (fun name args ->
        match Parallel.call_entry p name args with
        | r -> Ok r.Parallel.value
        | exception Parallel.Error m -> Error m);
    st_alloc = (fun n -> Heap.alloc heap Heap.Unsafe n);
    st_write;
    st_read;
    st_drain = (fun () -> ignore (Parallel.shutdown p));
    st_register_obs = (fun reg -> Parallel.register_obs p reg);
  }

let store_of_pinterp (p : Pinterp.t) =
  let heap = p.Pinterp.exec.Exec.heap in
  let st_write, st_read = store_of_heap heap in
  {
    st_name = "simulated";
    st_call =
      (fun name args ->
        match Pinterp.call_entry p name args with
        | r -> Ok r.Pinterp.value
        | exception Pinterp.Error m -> Error m);
    st_alloc = (fun n -> Heap.alloc heap Heap.Unsafe n);
    st_write;
    st_read;
    st_drain = (fun () -> ());
    st_register_obs =
      (fun reg ->
        let ex = p.Pinterp.exec in
        let g = Obs.Registry.gauge reg in
        g ~help:"VM steps retired" "privagic_vm_steps_total" (fun () ->
            float_of_int ex.Exec.steps);
        g ~help:"extern dispatches" "privagic_vm_externs_total" (fun () ->
            float_of_int ex.Exec.externs);
        Obs.Registry.multi_gauge reg
          ~help:"declassification calls per color (shared extern path)"
          "privagic_declassify_total" (fun () ->
            Hashtbl.fold
              (fun color r acc -> ([ ("color", color) ], float_of_int !r) :: acc)
              ex.Exec.declass []
            |> List.sort compare));
  }

type bindings = {
  b_family : string;
  b_set : string;
  b_get : string;
  b_del : string option;
  b_init : string option;
  b_vcolor : string;
}

let known_families =
  [
    { b_family = "memcached"; b_set = "mc_set"; b_get = "mc_get";
      b_del = Some "mc_delete"; b_init = Some "mc_init"; b_vcolor = "U" };
    { b_family = "hashmap"; b_set = "hm_put"; b_get = "hm_get";
      b_del = None; b_init = None; b_vcolor = "U" };
    { b_family = "hashmap-2color"; b_set = "h2_put"; b_get = "h2_get";
      b_del = None; b_init = None; b_vcolor = "U" };
    { b_family = "treemap"; b_set = "tm_put"; b_get = "tm_get";
      b_del = None; b_init = None; b_vcolor = "U" };
    { b_family = "linked-list"; b_set = "ll_put"; b_get = "ll_get";
      b_del = None; b_init = None; b_vcolor = "U" };
  ]

(* The color under which stored values travel on the replication wire:
   the enclave the plan placed the store's globals in ("U" for a plain
   plan, whose store is unsafe memory anyway). When the plan spans two
   enclaves (hashmap-2color: keys blue, values red) the value bytes live
   in red, hence the preference. *)
let value_color (plan : Privagic_partition.Plan.t) =
  let named =
    List.filter_map
      (fun (_, c) ->
        match c with Privagic_pir.Color.Named n -> Some n | _ -> None)
      plan.global_placement
  in
  match named with
  | [] -> "U"
  | l -> if List.mem "red" l then "red" else List.hd l

let bindings_of_plan (plan : Privagic_partition.Plan.t) =
  let have name =
    List.exists
      (fun (e : Privagic_partition.Plan.entry_plan) -> e.ep_name = name)
      plan.entries
  in
  Option.map
    (fun b -> { b with b_vcolor = value_color plan })
    (List.find_opt (fun b -> have b.b_set && have b.b_get) known_families)

type policy = Block | Shed

type config = {
  host : string;
  port : int;
  shards : int;
  lanes : int;
  queue_depth : int;
  policy : policy;
  max_batch : int;
  vsize : int;
  telemetry : Tel.Recorder.t;
  repl_window : int;
  repl_cluster : string;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    shards = 1;
    lanes = 2;
    queue_depth = 64;
    policy = Block;
    max_batch = 8;
    vsize = 32;
    telemetry = Tel.Recorder.null;
    repl_window = 1024;
    repl_cluster = "privagic";
  }

(* [Unix.select] is limited to fd values below FD_SETSIZE (1024). The
   cap is on open client connections, counted process-fd-conservatively:
   headroom is left for the listen socket, the per-shard self-pipes,
   stdio, and replica stream fds. Beyond the cap the acceptor refuses
   with a clear error instead of corrupting every loop's select. *)
let fd_cap = 960

(* A connection may have at most this many parsed-but-unflushed requests
   before its loop stops reading it (pipelining flow control). *)
let max_pipeline = 512

(* ------------------------------------------------------------------ *)

(* One parsed request's response slot, in arrival order. Slots are
   filled out of order (a cross-shard request completes remotely) but
   flushed strictly in order. *)
type pending = {
  p_enq_at : float;
  mutable p_resp : Protocol.response option;  (* guarded by [c_mu] *)
}

type conn = {
  c_fd : Unix.file_descr;
  c_reader : Protocol.reader;
  c_shard : int;                    (* owning shard (loop) *)
  c_mu : Mutex.t;                   (* guards p_resp fills + c_inflight *)
  c_pending : pending Queue.t;      (* response slots; owner pushes/pops *)
  c_jobs : (pending * Protocol.request) Queue.t;  (* undispatched; owner *)
  c_obuf : Buffer.t;                (* rendered, not yet staged; owner *)
  mutable c_wbuf : Bytes.t;         (* staged write chunk; owner *)
  mutable c_woff : int;
  mutable c_inflight : int;         (* dispatched, unanswered; c_mu *)
  mutable c_dead : bool;            (* owner only *)
  mutable c_eof : bool;             (* owner only *)
  mutable c_quit : bool;            (* owner only *)
  mutable c_repl : (bool * int) option;  (* sync, from_seq; owner only *)
}

(* Cross-shard handoff: a request whose key hashes to another shard. *)
type xwork = { xw_conn : conn; xw_pending : pending; xw_req : Protocol.request }

type shard = {
  sh_id : int;
  sh_store : store;
  sh_txn : Txn.t;        (* this shard's versions + indexes; under latch *)
  sh_lengths : (int, int) Hashtbl.t;  (* key -> stored length; latch *)
  sh_vbuf : int;
  sh_obuf : int;
  sh_latch : Mutex.t;
      (* serializes execution on this shard's store. The owner loop
         holds it per batch (uncontended); outsiders take it for 2PC,
         scan cursors, and replica apply. *)
  sh_inbox : xwork Msq.t;           (* cross-shard requests, bounded *)
  sh_depth : int Atomic.t;          (* inbox depth *)
  sh_wake_r : Unix.file_descr;      (* self-pipe: wakes the loop *)
  sh_wake_w : Unix.file_descr;
  sh_in_mu : Mutex.t;
  sh_incoming : conn Queue.t;       (* acceptor -> loop handoff *)
  mutable sh_conns : conn list;     (* owner loop only *)
  sh_track : int;
}

type role = Primary | Replica_of of string

type t = {
  cfg : config;
  bnd : bindings;
  sh : shard array;
  listen_fd : Unix.file_descr;
  t_port : int;
  started_at : float;
  (* replication *)
  repl_log : Repl.Log.t;   (* shared: the merged monotone sequence *)
  hub : Repl.Shipper.t;
  role_mu : Mutex.t;
  mutable t_role : role;
  n_applied : int Atomic.t;        (* deltas applied while a replica *)
  n_fence_timeouts : int Atomic.t; (* sync acks that timed out *)
  tel_mu : Mutex.t;                (* the recorder is not thread-safe *)
  a_wake_r : Unix.file_descr;      (* acceptor self-pipe *)
  a_wake_w : Unix.file_descr;
  (* counters (Atomic: each is read/bumped from several domains) *)
  conns_accepted : int Atomic.t;
  conns_open : int Atomic.t;
  conns_rejected : int Atomic.t;   (* refused at the fd cap *)
  n_gets : int Atomic.t;
  n_sets : int Atomic.t;
  n_dels : int Atomic.t;
  n_hits : int Atomic.t;
  n_shed : int Atomic.t;
  n_bad : int Atomic.t;
  n_batches : int Atomic.t;
  n_coalesced : int Atomic.t;
  n_getv : int Atomic.t;
  n_cas : int Atomic.t;
  n_cas_conflicts : int Atomic.t;
  n_txns : int Atomic.t;
  n_txn_aborts : int Atomic.t;
  n_scans : int Atomic.t;
  n_scan_items : int Atomic.t;
  n_xshard : int Atomic.t;         (* requests that crossed shards *)
  m_mu : Mutex.t;
  h_latency : Tel.Metrics.histogram;
  h_qwait : Tel.Metrics.histogram;
  h_scan_len : Tel.Metrics.histogram; (* items returned per scan *)
  obs : Obs.Registry.t; (* live metrics, served via `stats metrics` *)
  (* lifecycle *)
  d_mu : Mutex.t;
  d_cv : Condition.t;
  draining : bool Atomic.t;
  mutable shutdown_req : bool;     (* d_mu; set by the shutdown verb *)
  mutable drain_started : bool;    (* d_mu *)
  mutable drained : bool;          (* d_mu *)
  mutable n_dispatched : int;      (* d_mu; shards past the drain barrier *)
  (* replica-handshake handoff: shard loops must NOT call
     [Shipper.register] themselves — the ship thread would be created on
     the shard's domain, and that domain could then never terminate
     while the replica link lives (Domain.join in [drain] would wait on
     the ship thread, which only exits in [Shipper.drain], after the
     join: deadlock). The shard queues the fd here; a registrar thread
     created at [start] (on the starting domain) owns every ship
     thread. *)
  reg_mu : Mutex.t;
  reg_cv : Condition.t;
  mutable reg_q : (Unix.file_descr * bool * int) list; (* reg_mu *)
  mutable reg_stop : bool;                             (* reg_mu *)
  mutable registrar : Thread.t option;
  mutable acceptor : Thread.t option;
  mutable supervisor : Thread.t option;
  mutable domains : unit Domain.t list;
}

let now_us t = (Unix.gettimeofday () -. t.started_at) *. 1e6

let wake_fd w =
  (* the pipe is non-blocking; a full pipe already guarantees a wakeup *)
  try ignore (Unix.write w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let wake s = wake_fd s.sh_wake_w

let drain_pipe fd buf =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Wire-capture tap for the robust-safety monitor: every response byte the
   server puts on a client connection also goes here (process-wide). *)
let wire_tap : (string -> unit) option ref = ref None

let set_wire_tap f = wire_tap := f

(* ------------------------------------------------------------------ *)
(* execution: per-shard entry calls, under that shard's latch *)

let shard_of t key = key mod Array.length t.sh

let exec_set t sh key v =
  if String.length v > t.cfg.vsize then
    Protocol.Error_msg
      (Printf.sprintf "value exceeds program value size %d" t.cfg.vsize)
  else begin
    (* the program copies exactly vsize bytes: zero-pad the tail *)
    let padded =
      if String.length v = t.cfg.vsize then v
      else v ^ String.make (t.cfg.vsize - String.length v) '\000'
    in
    sh.sh_store.st_write sh.sh_vbuf padded;
    match
      sh.sh_store.st_call t.bnd.b_set
        [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr sh.sh_vbuf ]
    with
    | Ok _ ->
      Hashtbl.replace sh.sh_lengths key (String.length v);
      Protocol.Stored
    | Error m -> Protocol.Error_msg ("exec: " ^ m)
  end

let exec_get t sh key =
  match
    sh.sh_store.st_call t.bnd.b_get
      [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr sh.sh_obuf ]
  with
  | Ok v when Rvalue.truthy v ->
    let len =
      match Hashtbl.find_opt sh.sh_lengths key with
      | Some n -> n
      | None -> t.cfg.vsize
    in
    Protocol.Value (key, sh.sh_store.st_read sh.sh_obuf len)
  | Ok _ -> Protocol.Miss
  | Error m -> Protocol.Error_msg ("exec: " ^ m)

let exec_del t sh key =
  match t.bnd.b_del with
  | None ->
    Protocol.Error_msg
      (Printf.sprintf "del not supported by the %s program" t.bnd.b_family)
  | Some entry -> (
    match sh.sh_store.st_call entry [ Rvalue.Int (Int64.of_int key) ] with
    | Ok v when Rvalue.truthy v ->
      Hashtbl.remove sh.sh_lengths key;
      Protocol.Deleted
    | Ok _ -> Protocol.Not_found
    | Error m -> Protocol.Error_msg ("exec: " ^ m))

(* Commit choke points: every committed write — client set/del, replica
   apply, CAS, transaction — advances the owning shard's per-key
   versions and secondary indexes here, under that shard's latch.
   Primaries and replicas run the same hooks, which is what makes
   replicas converge on versions and indexes too, not only on bytes. *)
let commit_set t sh key v =
  match exec_set t sh key v with
  | Protocol.Stored ->
    Txn.note_put sh.sh_txn ~key ~value:v;
    Protocol.Stored
  | r -> r

let commit_del t sh key =
  match exec_del t sh key with
  | Protocol.Deleted ->
    Txn.note_del sh.sh_txn ~key;
    Protocol.Deleted
  | r -> r

(* The txn executor reads and writes through the shard's own entry
   points (classify/declassify still mediate every value). Writes use
   the raw exec paths: [Txn.execute] runs the note hooks itself. *)
let txn_store_ops t sh =
  {
    Txn.o_get =
      (fun k ->
        match exec_get t sh k with
        | Protocol.Value (_, v) -> Ok (Some v)
        | Protocol.Miss -> Ok None
        | Protocol.Error_msg m -> Error m
        | _ -> Error "unexpected get response");
    o_set =
      (fun k v ->
        match exec_set t sh k v with
        | Protocol.Stored -> Ok ()
        | Protocol.Error_msg m -> Error m
        | _ -> Error "unexpected set response");
    o_del =
      (fun k ->
        match exec_del t sh k with
        | Protocol.Deleted -> Ok true
        | Protocol.Not_found -> Ok false
        | Protocol.Error_msg m -> Error m
        | _ -> Error "unexpected del response");
    (* applicability limits, so [Txn.execute] rejects a doomed write in
       its validate phase (the wire accepts values up to the frame
       limit, well past cfg.vsize) instead of failing mid-apply *)
    o_max_value = t.cfg.vsize;
    o_can_del = t.bnd.b_del <> None;
  }

(* Take the latches of the (ascending) shard ids in [ids], run [f],
   release in reverse. Ascending order is the 2PC deadlock-freedom
   argument: two cross-shard commits always contend in the same order. *)
let with_latches t ids f =
  List.iter (fun i -> Mutex.lock t.sh.(i).sh_latch) ids;
  let release () =
    List.iter (fun i -> Mutex.unlock t.sh.(i).sh_latch) (List.rev ids)
  in
  match f () with
  | r ->
    release ();
    r
  | exception e ->
    release ();
    raise e

(* ------------------------------------------------------------------ *)
(* replica-side application: a delta from the primary executes through
   the same entry paths a client request would, under the owning
   shard's latch, and mirrors the primary's numbering into the local
   log — which is what lets a promoted replica serve downstream
   replicas (and its own convergence oracle) from the same stream
   positions. The replica client applies strictly in seq order, so the
   mirrored log stays dense even though deltas fan out across shards. *)

let mirror t ~seq op =
  match Repl.Log.append_at t.repl_log ~seq op with
  | () ->
    Atomic.incr t.n_applied;
    Ok ()
  | exception Invalid_argument m -> Error m

let apply_put t ~seq ~key ~payload =
  let sh = t.sh.(shard_of t key) in
  Mutex.lock sh.sh_latch;
  let r =
    match commit_set t sh key payload with
    | Protocol.Stored ->
      mirror t ~seq
        (Repl.Delta.Put { key; color = t.bnd.b_vcolor; payload })
    | Protocol.Error_msg m -> Error m
    | _ -> Error "unexpected response applying put"
  in
  Mutex.unlock sh.sh_latch;
  r

let apply_del t ~seq ~key =
  let sh = t.sh.(shard_of t key) in
  Mutex.lock sh.sh_latch;
  let r =
    match commit_del t sh key with
    (* Not_found still mirrors: the primary numbered this delta, and the
       replica's log must stay dense to keep stream positions aligned *)
    | Protocol.Deleted | Protocol.Not_found ->
      mirror t ~seq (Repl.Delta.Del { key })
    | Protocol.Error_msg m -> Error m
    | _ -> Error "unexpected response applying del"
  in
  Mutex.unlock sh.sh_latch;
  r

let promote t =
  Mutex.lock t.role_mu;
  t.t_role <- Primary;
  Mutex.unlock t.role_mu

let role_name t =
  Mutex.lock t.role_mu;
  let r =
    match t.t_role with
    | Primary -> "primary"
    | Replica_of a -> "replica:" ^ a
  in
  Mutex.unlock t.role_mu;
  r

let is_replica t =
  Mutex.lock t.role_mu;
  let r = match t.t_role with Primary -> false | Replica_of _ -> true in
  Mutex.unlock t.role_mu;
  r

let repl_log t = t.repl_log
let repl_hub t = t.hub

(* ------------------------------------------------------------------ *)
(* response slots *)

(* Fill a dispatched slot: the matching [c_inflight] increment happened
   when the job left the undispatched queue. The latency histogram
   closes here — after execution and any sync fence, before the owner's
   flush renders the bytes. *)
let fill t c p resp =
  Mutex.lock c.c_mu;
  p.p_resp <- Some resp;
  c.c_inflight <- c.c_inflight - 1;
  Mutex.unlock c.c_mu;
  Mutex.lock t.m_mu;
  Tel.Metrics.observe t.h_latency (now_us t -. p.p_enq_at);
  Mutex.unlock t.m_mu

let inflight c =
  Mutex.lock c.c_mu;
  let n = c.c_inflight in
  Mutex.unlock c.c_mu;
  n

(* Sync-replication fence: hold responses until every live sync replica
   acknowledged this commit — read-your-writes on replica reads.
   Called outside all latches, so other shards keep executing; a wedged
   replica degrades to async after the timeout. *)
let maybe_fence t max_seq =
  if max_seq > 0 && Repl.Shipper.sync_connected t.hub > 0 then
    if not (Repl.Shipper.wait_synced t.hub ~seq:max_seq ~timeout_s:5.0) then
      Atomic.incr t.n_fence_timeouts

(* ------------------------------------------------------------------ *)
(* execution: one chunk of same-shard requests, under the shard latch *)

let tel_span t track name f =
  if t.cfg.telemetry == Tel.Recorder.null then f ()
  else begin
    Mutex.lock t.tel_mu;
    Tel.Recorder.record t.cfg.telemetry ~at:(now_us t) ~track ~name
      Tel.Event.Req_begin;
    Mutex.unlock t.tel_mu;
    let r = f () in
    Mutex.lock t.tel_mu;
    Tel.Recorder.record t.cfg.telemetry ~at:(now_us t) ~track ~name
      Tel.Event.Req_end;
    Mutex.unlock t.tel_mu;
    r
  end

(* Execute one chunk (all requests keyed to [sh]) under its latch, then
   fence, then fill the slots. Duplicate gets inside the chunk are
   served from a key cache — exact, because the chunk runs atomically
   under the latch and sets/dels of the chunk refresh the cache in
   order. Returns nothing; completions for foreign-owned connections
   are signaled by the caller (it knows which owners to wake). *)
let exec_chunk t sh (chunk : (conn * pending * Protocol.request) list) =
  let cache : (int, Protocol.response) Hashtbl.t = Hashtbl.create 8 in
  let track = sh.sh_track in
  Atomic.incr t.n_batches;
  (* highest delta seq committed by this chunk; 0 when it wrote nothing *)
  let max_seq = ref 0 in
  let committed op =
    let seq = Repl.Log.append t.repl_log op in
    if seq > !max_seq then max_seq := seq
  in
  (* a committed transaction's writes form one contiguous run in the
     log — the atomic-commit delta batch of the txn layer *)
  let delta_of w =
    match w with
    | Txn.W_put { w_key; w_value } ->
      Repl.Delta.Put { key = w_key; color = t.bnd.b_vcolor; payload = w_value }
    | Txn.W_del { w_key } -> Repl.Delta.Del { key = w_key }
  in
  let commit_writes writes =
    match writes with
    | [] -> ()
    | _ ->
      let seq = Repl.Log.append_batch t.repl_log (List.map delta_of writes) in
      if seq > !max_seq then max_seq := seq
  in
  Mutex.lock sh.sh_latch;
  let responses =
    List.map
      (fun (c, p, req) ->
        let started = now_us t in
        Mutex.lock t.m_mu;
        Tel.Metrics.observe t.h_qwait (started -. p.p_enq_at);
        Mutex.unlock t.m_mu;
        let resp =
          match req with
          | Protocol.Get k -> (
            Atomic.incr t.n_gets;
            match Hashtbl.find_opt cache k with
            | Some r ->
              Atomic.incr t.n_coalesced;
              (match r with
              | Protocol.Value _ -> Atomic.incr t.n_hits
              | _ -> ());
              r
            | None ->
              let r = tel_span t track "get" (fun () -> exec_get t sh k) in
              (match r with
              | Protocol.Value _ -> Atomic.incr t.n_hits
              | _ -> ());
              Hashtbl.replace cache k r;
              r)
          | Protocol.Set (k, v) ->
            Atomic.incr t.n_sets;
            let r = tel_span t track "set" (fun () -> commit_set t sh k v) in
            (match r with
            | Protocol.Stored ->
              committed
                (Repl.Delta.Put
                   { key = k; color = t.bnd.b_vcolor; payload = v });
              Hashtbl.replace cache k (Protocol.Value (k, v))
            | _ -> Hashtbl.remove cache k);
            r
          | Protocol.Del k ->
            Atomic.incr t.n_dels;
            let r = tel_span t track "del" (fun () -> commit_del t sh k) in
            (match r with
            | Protocol.Deleted ->
              (* Not_found has no visible effect, so it ships no delta *)
              committed (Repl.Delta.Del { key = k });
              Hashtbl.replace cache k Protocol.Miss
            | Protocol.Not_found -> Hashtbl.replace cache k Protocol.Miss
            | _ -> Hashtbl.remove cache k);
            r
          | Protocol.Getv k -> (
            Atomic.incr t.n_getv;
            (* version first: both are read under the same latch hold *)
            let ver = Txn.version sh.sh_txn k in
            match tel_span t track "getv" (fun () -> exec_get t sh k) with
            | Protocol.Value (_, v) ->
              Atomic.incr t.n_hits;
              Protocol.Version { v_key = k; v_ver = ver; v_val = Some v }
            | Protocol.Miss ->
              Protocol.Version { v_key = k; v_ver = ver; v_val = None }
            | r -> r)
          | Protocol.Cas { c_key; c_ver; c_val } -> (
            Atomic.incr t.n_cas;
            let r =
              tel_span t track "cas" (fun () ->
                  Txn.execute sh.sh_txn (txn_store_ops t sh)
                    [ Txn.T_cas (c_key, c_ver, c_val) ])
            in
            match r with
            | Txn.Committed (_, writes) ->
              commit_writes writes;
              Hashtbl.replace cache c_key (Protocol.Value (c_key, c_val));
              Protocol.Stored
            | Txn.Aborted { a_expected; a_found; _ } ->
              Atomic.incr t.n_cas_conflicts;
              if a_found = 0 && a_expected > 0 then Protocol.Not_found
              else Protocol.Cas_conflict a_found
            | Txn.Failed { f_msg; f_applied } ->
              (* any applied prefix is committed state: ship it, or
                 replicas diverge from the primary's versions *)
              commit_writes f_applied;
              List.iter
                (fun w ->
                  Hashtbl.remove cache
                    (match w with
                    | Txn.W_put { w_key; _ } | Txn.W_del { w_key } -> w_key))
                f_applied;
              Protocol.Error_msg ("exec: " ^ f_msg))
          | Protocol.Txn ops -> (
            (* single-shard transactions only: multi-shard ones execute
               inline at the owner (the 2PC barrier path) *)
            Atomic.incr t.n_txns;
            let r =
              tel_span t track "txn" (fun () ->
                  Txn.execute sh.sh_txn (txn_store_ops t sh) ops)
            in
            match r with
            | Txn.Committed (results, writes) ->
              commit_writes writes;
              List.iter
                (fun w ->
                  match w with
                  | Txn.W_put { w_key; w_value } ->
                    Hashtbl.replace cache w_key
                      (Protocol.Value (w_key, w_value))
                  | Txn.W_del { w_key } ->
                    Hashtbl.replace cache w_key Protocol.Miss)
                writes;
              Protocol.Txn_reply results
            | Txn.Aborted { a_key; a_expected; a_found } ->
              Atomic.incr t.n_txn_aborts;
              Protocol.Txn_abort
                { ta_key = a_key; ta_expected = a_expected; ta_found = a_found }
            | Txn.Failed { f_msg; f_applied } ->
              commit_writes f_applied;
              List.iter
                (fun w ->
                  Hashtbl.remove cache
                    (match w with
                    | Txn.W_put { w_key; _ } | Txn.W_del { w_key } -> w_key))
                f_applied;
              Protocol.Error_msg ("exec: " ^ f_msg))
          | Protocol.Scan _ | Protocol.Stats | Protocol.Stats_metrics
          | Protocol.Quit | Protocol.Shutdown | Protocol.Repl _ ->
            (* scans merge per-shard cursors at the owner; the rest are
               answered at parse time — none of them is ever routed *)
            Protocol.Error_msg "internal: non-routable verb in shard chunk"
        in
        (c, p, resp))
      chunk
  in
  Mutex.unlock sh.sh_latch;
  maybe_fence t !max_seq;
  List.iter (fun (c, p, resp) -> fill t c p resp) responses

(* ------------------------------------------------------------------ *)
(* barrier requests: multi-shard transactions (2PC) and scans *)

let txn_shard_ids t ops =
  List.sort_uniq compare
    (List.map
       (fun op ->
         match op with
         | Protocol.T_get k | Protocol.T_set (k, _) | Protocol.T_del k
         | Protocol.T_cas (k, _, _) ->
           shard_of t k)
       ops)

(* A transaction straddling shards: take every participant latch in
   ascending order, validate against all shards (phase 1), apply only
   if all validated (phase 2) — [Txn.execute_routed] does both phases
   under the latches, so the commit is atomic across shards. The delta
   batch is appended while the latches are held: per-key log order
   equals commit order on every shard. *)
let exec_txn_2pc t s ops =
  let ids = txn_shard_ids t ops in
  let coord =
    match ids with [] -> s.sh_txn | i :: _ -> t.sh.(i).sh_txn
  in
  let route k =
    let sh = t.sh.(shard_of t k) in
    (sh.sh_txn, txn_store_ops t sh)
  in
  Atomic.incr t.n_txns;
  let max_seq = ref 0 in
  let commit_writes writes =
    match writes with
    | [] -> ()
    | _ ->
      let delta_of w =
        match w with
        | Txn.W_put { w_key; w_value } ->
          Repl.Delta.Put
            { key = w_key; color = t.bnd.b_vcolor; payload = w_value }
        | Txn.W_del { w_key } -> Repl.Delta.Del { key = w_key }
      in
      let seq = Repl.Log.append_batch t.repl_log (List.map delta_of writes) in
      if seq > !max_seq then max_seq := seq
  in
  let resp =
    with_latches t ids (fun () ->
        match
          tel_span t s.sh_track "txn2pc" (fun () ->
              Txn.execute_routed ~route ~coord ops)
        with
        | Txn.Committed (results, writes) ->
          commit_writes writes;
          Protocol.Txn_reply results
        | Txn.Aborted { a_key; a_expected; a_found } ->
          Atomic.incr t.n_txn_aborts;
          Protocol.Txn_abort
            { ta_key = a_key; ta_expected = a_expected; ta_found = a_found }
        | Txn.Failed { f_msg; f_applied } ->
          commit_writes f_applied;
          Protocol.Error_msg ("exec: " ^ f_msg))
  in
  maybe_fence t !max_seq;
  resp

(* A scan merges per-shard ordered-index cursors: each shard's slice is
   read under its own latch (no global lock), the sorted slices are
   merged, and the first [limit] survive. Shards partition the key
   space, so there are no ties. *)
let exec_scan t s ~start ~stop ~limit =
  Atomic.incr t.n_scans;
  let items =
    tel_span t s.sh_track "scan" (fun () ->
        let per =
          Array.fold_left
            (fun acc sh ->
              Mutex.lock sh.sh_latch;
              let l = Index.range (Txn.index sh.sh_txn) ~start ~stop ~limit in
              Mutex.unlock sh.sh_latch;
              l :: acc)
            [] t.sh
        in
        let all = List.concat per in
        let sorted =
          List.sort
            (fun (a : Index.entry) (b : Index.entry) ->
              compare a.Index.e_key b.Index.e_key)
            all
        in
        List.filteri (fun i _ -> i < limit) sorted)
  in
  ignore (Atomic.fetch_and_add t.n_scan_items (List.length items));
  Mutex.lock t.m_mu;
  Tel.Metrics.observe t.h_scan_len (float_of_int (List.length items));
  Mutex.unlock t.m_mu;
  Protocol.Scan_reply
    (List.map
       (fun (e : Index.entry) ->
         (* [e_value] is populated only for color "U": a secret-colored
            value leaves as key+version alone *)
         {
           Protocol.si_key = e.Index.e_key;
           si_ver = e.Index.e_version;
           si_val = e.Index.e_value;
         })
       items)

(* ------------------------------------------------------------------ *)
(* parse-time handling (owner loop) *)

(* [stats_fields] and [drain] are defined at the end of the file but
   needed here; tied through refs to keep the file in reading order
   instead of one giant [let rec]. *)
let stats_fields_ref : (t -> (string * string) list) ref = ref (fun _ -> [])
let drain_ref : (t -> unit) ref = ref (fun _ -> ())

let request_shutdown t =
  Mutex.lock t.d_mu;
  t.shutdown_req <- true;
  Condition.broadcast t.d_cv;
  Mutex.unlock t.d_mu

let answer_local t c resp =
  Queue.push { p_enq_at = now_us t; p_resp = Some resp } c.c_pending

let push_job t c req =
  let p = { p_enq_at = now_us t; p_resp = None } in
  Queue.push p c.c_pending;
  Queue.push (p, req) c.c_jobs

(* Locally-answerable verbs resolve at parse time; everything on the
   data path becomes an undispatched job. Response order is still
   arrival order: local answers occupy their slot like any other. *)
let handle_parsed t c item =
  match item with
  | `Bad m ->
    Atomic.incr t.n_bad;
    answer_local t c (Protocol.Error_msg m)
  | `Req r -> (
    match r with
    | Protocol.Stats -> answer_local t c (Protocol.Stats_reply (!stats_fields_ref t))
    | Protocol.Stats_metrics ->
      answer_local t c (Protocol.Metrics_reply (Obs.Registry.expose t.obs))
    | Protocol.Quit ->
      (* memcached semantics: no reply; close once prior slots flush *)
      c.c_quit <- true;
      c.c_eof <- true
    | Protocol.Shutdown ->
      answer_local t c Protocol.Ok_msg;
      (* the supervisor thread (main domain) runs the drain: draining
         from a shard domain would join itself *)
      request_shutdown t
    | Protocol.Repl { r_sync; r_from } ->
      (* replication handshake: this connection leaves the request loop
         for good — once its slots flush, the shipper owns the fd. The
         replica sends nothing between its hello and the first frames,
         so the parse buffer is empty at the handoff. *)
      c.c_repl <- Some (r_sync, r_from);
      c.c_eof <- true
    | (Protocol.Set _ | Protocol.Del _ | Protocol.Cas _) when is_replica t ->
      (* replicas apply the primary's stream, never client writes *)
      answer_local t c (Protocol.Error_msg "read-only replica")
    | Protocol.Txn ops
      when is_replica t
           && List.exists
                (function Protocol.T_get _ -> false | _ -> true)
                ops ->
      (* read-only transactions are fine on a replica; writes are not *)
      answer_local t c (Protocol.Error_msg "read-only replica")
    | Protocol.Get _ | Protocol.Set _ | Protocol.Del _ | Protocol.Getv _
    | Protocol.Cas _ | Protocol.Scan _ | Protocol.Txn _ ->
      push_job t c r)

(* ------------------------------------------------------------------ *)
(* dispatch (owner loop): route undispatched jobs in arrival order *)

type route = Local_shard | Remote_shard of int | Barrier

let route_of t s req =
  match req with
  | Protocol.Get k | Protocol.Set (k, _) | Protocol.Del k | Protocol.Getv k
  | Protocol.Cas { c_key = k; _ } ->
    let r = shard_of t k in
    if r = s.sh_id then Local_shard else Remote_shard r
  | Protocol.Txn ops -> (
    match txn_shard_ids t ops with
    | [ r ] -> if r = s.sh_id then Local_shard else Remote_shard r
    | _ -> Barrier (* spans shards (or touches none): inline 2PC *))
  | Protocol.Scan _ -> Barrier
  | _ -> Barrier (* unreachable: local verbs never become jobs *)

(* Pop up to [max_batch] cross-shard requests from our inbox and run
   them as one chunk. Returns the number processed; fills for foreign
   connections wake their owners (deduplicated). *)
let process_inbox_round t s =
  let rec take acc n =
    if n >= t.cfg.max_batch then List.rev acc
    else
      match Msq.pop s.sh_inbox with
      | Some xw ->
        Atomic.decr s.sh_depth;
        take (xw :: acc) (n + 1)
      | None -> List.rev acc
  in
  match take [] 0 with
  | [] -> 0
  | items ->
    exec_chunk t s
      (List.map (fun xw -> (xw.xw_conn, xw.xw_pending, xw.xw_req)) items);
    let woken = Array.make (Array.length t.sh) false in
    List.iter
      (fun xw ->
        let o = xw.xw_conn.c_shard in
        if o <> s.sh_id && not woken.(o) then begin
          woken.(o) <- true;
          wake t.sh.(o)
        end)
      items;
    List.length items

(* Reserve a slot in shard [r]'s inbox, honoring the backpressure
   policy. Under [Block], a full target stalls us — but we drain our
   own inbox while waiting, so two shards blocked on each other's full
   inboxes still make progress (no cross-shard backpressure deadlock). *)
let rec admit_remote t s r =
  let d = t.sh.(r).sh_depth in
  let cur = Atomic.get d in
  if cur < t.cfg.queue_depth then
    if Atomic.compare_and_set d cur (cur + 1) then true else admit_remote t s r
  else
    match t.cfg.policy with
    | Shed -> false
    | Block ->
      if process_inbox_round t s = 0 then Unix.sleepf 0.0005;
      admit_remote t s r

let fill_busy t c p =
  Atomic.incr t.n_shed;
  fill t c p Protocol.Busy

(* Dispatch a connection's undispatched jobs in arrival order. Local
   jobs join [batch] (executed by the caller); remote jobs enter the
   target inbox; a barrier job (multi-shard txn, scan) runs inline once
   every earlier request of this connection has completed — that wait
   is what makes a cross-shard transaction see its own connection's
   earlier writes. Stops at an unready barrier; resumes when fills
   arrive (the filler wakes us). *)
let dispatch_conn t s c batch batch_n progressed =
  if c.c_dead then Queue.clear c.c_jobs
  else begin
    let continue = ref true in
    while !continue && not (Queue.is_empty c.c_jobs) do
      let p, req = Queue.peek c.c_jobs in
      let pop_dispatch () =
        ignore (Queue.pop c.c_jobs);
        Mutex.lock c.c_mu;
        c.c_inflight <- c.c_inflight + 1;
        Mutex.unlock c.c_mu;
        progressed := true
      in
      match route_of t s req with
      | Local_shard ->
        pop_dispatch ();
        if
          t.cfg.policy = Shed
          && !batch_n + Atomic.get s.sh_depth >= t.cfg.queue_depth
        then fill_busy t c p
        else begin
          batch := (c, p, req) :: !batch;
          incr batch_n
        end
      | Remote_shard r ->
        pop_dispatch ();
        Atomic.incr t.n_xshard;
        if admit_remote t s r then begin
          Msq.push t.sh.(r).sh_inbox { xw_conn = c; xw_pending = p; xw_req = req };
          wake t.sh.(r)
        end
        else fill_busy t c p
      | Barrier ->
        if inflight c = 0 then begin
          pop_dispatch ();
          let resp =
            match req with
            | Protocol.Txn ops -> exec_txn_2pc t s ops
            | Protocol.Scan { sc_start; sc_stop; sc_limit } ->
              exec_scan t s ~start:sc_start ~stop:sc_stop ~limit:sc_limit
            | _ -> Protocol.Error_msg "internal: unexpected barrier verb"
          in
          (match req with
          | Protocol.Txn ops when txn_shard_ids t ops <> [ s.sh_id ] ->
            Atomic.incr t.n_xshard
          | _ -> ());
          fill t c p resp
        end
        else continue := false
    done
  end

(* Run the shard forward until quiescent: drain the inbox, dispatch
   every connection, execute the local batch (in [max_batch] chunks),
   repeat — executing may unblock barriers, and barrier execution may
   have pushed new inbox work at us. *)
let progress t s =
  let again = ref true in
  while !again do
    again := false;
    if process_inbox_round t s > 0 then again := true;
    let batch = ref [] and batch_n = ref 0 in
    List.iter (fun c -> dispatch_conn t s c batch batch_n again) s.sh_conns;
    let jobs = List.rev !batch in
    let rec chunks = function
      | [] -> ()
      | l ->
        let rec split n acc = function
          | [] -> (List.rev acc, [])
          | rest when n = 0 -> (List.rev acc, rest)
          | x :: rest -> split (n - 1) (x :: acc) rest
        in
        let chunk, rest = split t.cfg.max_batch [] l in
        exec_chunk t s chunk;
        chunks rest
    in
    if jobs <> [] then chunks jobs
  done

(* ------------------------------------------------------------------ *)
(* connection I/O (owner loop) *)

let read_conn t c rbuf =
  match Unix.read c.c_fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> c.c_eof <- true
  | n ->
    List.iter
      (fun item ->
        if (not c.c_quit) && c.c_repl = None && not c.c_dead then
          handle_parsed t c item)
      (Protocol.feed c.c_reader rbuf n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.c_dead <- true

let has_output c =
  c.c_woff < Bytes.length c.c_wbuf || Buffer.length c.c_obuf > 0

let write_out c =
  let rec go () =
    if c.c_woff >= Bytes.length c.c_wbuf then begin
      if Buffer.length c.c_obuf > 0 then begin
        c.c_wbuf <- Buffer.to_bytes c.c_obuf;
        Buffer.clear c.c_obuf;
        c.c_woff <- 0;
        go ()
      end
    end
    else
      match
        Unix.write c.c_fd c.c_wbuf c.c_woff (Bytes.length c.c_wbuf - c.c_woff)
      with
      | 0 -> ()
      | n ->
        c.c_woff <- c.c_woff + n;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> c.c_dead <- true
  in
  if not c.c_dead then go ()

(* Render the completed prefix of response slots (strictly in arrival
   order) and push bytes out nonblockingly; a slow client accumulates
   buffer and gets picked up by write-readiness. *)
let flush_conn c =
  if not c.c_dead then begin
    let continue = ref true in
    while !continue do
      match Queue.peek_opt c.c_pending with
      | None -> continue := false
      | Some p -> (
        Mutex.lock c.c_mu;
        let r = p.p_resp in
        Mutex.unlock c.c_mu;
        match r with
        | Some resp ->
          ignore (Queue.pop c.c_pending);
          let s = Protocol.render resp in
          (match !wire_tap with None -> () | Some f -> f s);
          Buffer.add_string c.c_obuf s
        | None -> continue := false)
    done;
    write_out c
  end

let close_conn t c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  Atomic.decr t.conns_open

(* Drop finished connections; hand replica handshakes to the shipper. *)
let sweep t s =
  s.sh_conns <-
    List.filter
      (fun c ->
        if c.c_dead then begin
          close_conn t c;
          false
        end
        else
          match c.c_repl with
          | Some (sync, from_seq)
            when Queue.is_empty c.c_pending && not (has_output c) ->
            (* prior responses flushed: hand the fd to the registrar
               thread, which owns every ship thread (see [reg_q]) *)
            Mutex.lock t.reg_mu;
            t.reg_q <- (c.c_fd, sync, from_seq) :: t.reg_q;
            Condition.signal t.reg_cv;
            Mutex.unlock t.reg_mu;
            Atomic.decr t.conns_open;
            false
          | Some _ -> true
          | None ->
            if
              (c.c_eof || c.c_quit)
              && Queue.is_empty c.c_jobs
              && Queue.is_empty c.c_pending
              && not (has_output c)
            then begin
              close_conn t c;
              false
            end
            else true)
      s.sh_conns

let adopt t s =
  Mutex.lock s.sh_in_mu;
  let fresh = Queue.fold (fun acc c -> c :: acc) [] s.sh_incoming in
  Queue.clear s.sh_incoming;
  Mutex.unlock s.sh_in_mu;
  ignore t;
  s.sh_conns <- fresh @ s.sh_conns

(* ------------------------------------------------------------------ *)
(* the per-shard event loop (one domain each) *)

let note_dispatched t =
  Mutex.lock t.d_mu;
  t.n_dispatched <- t.n_dispatched + 1;
  Condition.broadcast t.d_cv;
  Mutex.unlock t.d_mu

let shard_loop t s =
  let rbuf = Bytes.create 65536 in
  let pbuf = Bytes.create 256 in
  let running = ref true in
  let dispatched_flagged = ref false in
  while !running do
    let draining = Atomic.get t.draining in
    let rds = ref [ s.sh_wake_r ] in
    let wrs = ref [] in
    List.iter
      (fun c ->
        if not c.c_dead then begin
          if
            (not c.c_eof) && (not draining)
            && Queue.length c.c_pending < max_pipeline
          then rds := c.c_fd :: !rds;
          if has_output c then wrs := c.c_fd :: !wrs
        end)
      s.sh_conns;
    (* no timeout on the serving path: every event that needs us writes
       the self-pipe. While draining, a bounded timeout catches peers
       that stall mid-flush (they are dropped, like the old 30 s write
       deadline, so a wedged client cannot hang the drain). *)
    let timeout = if draining then 5.0 else -1.0 in
    (match Unix.select !rds !wrs [] timeout with
    | [], [], [] ->
      if draining then
        List.iter (fun c -> if has_output c then c.c_dead <- true) s.sh_conns
    | rd, _, _ ->
      if List.mem s.sh_wake_r rd then drain_pipe s.sh_wake_r pbuf;
      List.iter
        (fun c ->
          if (not c.c_dead) && List.mem c.c_fd rd then read_conn t c rbuf)
        s.sh_conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) ->
      (* a raced fd: drop connections that died under us *)
      List.iter
        (fun c ->
          match Unix.fstat c.c_fd with
          | _ -> ()
          | exception Unix.Unix_error _ -> c.c_dead <- true)
        s.sh_conns);
    adopt t s;
    progress t s;
    List.iter flush_conn s.sh_conns;
    sweep t s;
    (* re-read: the wakeup that announced the drain may be the one this
       select consumed, and the next one comes only after every shard
       has passed stage 1 *)
    if Atomic.get t.draining then begin
      (* two-stage drain. Stage 1: every shard reports "all parsed work
         dispatched" (jobs may still be in flight in other shards'
         inboxes). Only when all shards report does [drain] close the
         inboxes — so no inbox push can race its close. Stage 2: drain
         the closed inbox, finish the fills and flushes, exit. *)
      let all_dispatched =
        List.for_all (fun c -> Queue.is_empty c.c_jobs) s.sh_conns
        &&
        (Mutex.lock s.sh_in_mu;
         let e = Queue.is_empty s.sh_incoming in
         Mutex.unlock s.sh_in_mu;
         e)
      in
      if (not !dispatched_flagged) && all_dispatched then begin
        dispatched_flagged := true;
        note_dispatched t
      end;
      let finished =
        !dispatched_flagged
        && Msq.is_closed s.sh_inbox
        && Msq.is_empty s.sh_inbox
        && List.for_all
             (fun c ->
               Queue.is_empty c.c_jobs
               && Queue.is_empty c.c_pending
               && not (has_output c))
             s.sh_conns
      in
      if finished then begin
        List.iter (close_conn t) s.sh_conns;
        s.sh_conns <- [];
        running := false
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* acceptor *)

let acceptor_loop t =
  let next = ref 0 in
  let pbuf = Bytes.create 256 in
  while not (Atomic.get t.draining) do
    match Unix.select [ t.listen_fd; t.a_wake_r ] [] [] (-1.0) with
    | rd, _, _ ->
      if List.mem t.a_wake_r rd then drain_pipe t.a_wake_r pbuf;
      if List.mem t.listen_fd rd then (
        match Unix.accept t.listen_fd with
        | fd, _ ->
          if Atomic.get t.conns_open >= fd_cap then begin
            (* select-based loops cannot take fds past FD_SETSIZE: refuse
               loudly instead of corrupting every shard's readiness set *)
            Atomic.incr t.conns_rejected;
            let msg =
              Protocol.render
                (Protocol.Error_msg
                   (Printf.sprintf "too many connections (fd cap %d)" fd_cap))
            in
            (match !wire_tap with None -> () | Some f -> f msg);
            (try ignore (Unix.write_substring fd msg 0 (String.length msg))
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            Unix.set_nonblock fd;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            let s = t.sh.(!next mod Array.length t.sh) in
            next := !next + 1;
            let c =
              {
                c_fd = fd;
                c_reader = Protocol.reader ();
                c_shard = s.sh_id;
                c_mu = Mutex.create ();
                c_pending = Queue.create ();
                c_jobs = Queue.create ();
                c_obuf = Buffer.create 256;
                c_wbuf = Bytes.create 0;
                c_woff = 0;
                c_inflight = 0;
                c_dead = false;
                c_eof = false;
                c_quit = false;
                c_repl = None;
              }
            in
            Atomic.incr t.conns_accepted;
            Atomic.incr t.conns_open;
            Mutex.lock s.sh_in_mu;
            Queue.push c s.sh_incoming;
            Mutex.unlock s.sh_in_mu;
            wake s
          end
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* The supervisor turns a [shutdown] verb into a drain. It lives on the
   main domain: a shard loop cannot run the drain itself (Domain.join
   on its own domain), so the verb only flags [shutdown_req]. *)
let supervisor_loop t =
  Mutex.lock t.d_mu;
  while not (t.shutdown_req || t.drain_started) do
    Condition.wait t.d_cv t.d_mu
  done;
  let run = t.shutdown_req && not t.drain_started in
  Mutex.unlock t.d_mu;
  if run then !drain_ref t

(* Registers queued replica links with the shipper. Runs on the
   starting domain so ship threads never pin a shard domain (see
   [reg_q]). On stop it flushes the queue first: a handshake a shard
   handed off just before exiting still gets its ship thread, and
   [Shipper.drain] (called after this thread joins) then bounds its
   lifetime. *)
let registrar_loop t =
  let stop = ref false in
  while not !stop do
    Mutex.lock t.reg_mu;
    while t.reg_q = [] && not t.reg_stop do
      Condition.wait t.reg_cv t.reg_mu
    done;
    let q = List.rev t.reg_q in
    t.reg_q <- [];
    stop := t.reg_stop;
    Mutex.unlock t.reg_mu;
    List.iter
      (fun (fd, sync, from_seq) -> Repl.Shipper.register t.hub fd ~sync ~from_seq)
      q
  done

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let start ?replica_of cfg bnd (stores : store array) =
  if cfg.shards < 1 then invalid_arg "Server.start: shards must be positive";
  if cfg.lanes < 1 then invalid_arg "Server.start: lanes must be positive";
  if Array.length stores <> cfg.shards then
    invalid_arg
      (Printf.sprintf "Server.start: %d stores for %d shards"
         (Array.length stores) cfg.shards);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen_fd 128
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "cannot bind %s:%d (%s)" cfg.host cfg.port
          (Printexc.to_string e)));
  let t_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let metrics = Tel.Metrics.create () in
  let started_at = Unix.gettimeofday () in
  let tel_mu = Mutex.create () in
  (* the shipper threads record their sends on a track of their own *)
  let repl_span =
    if cfg.telemetry == Tel.Recorder.null then fun _ f -> f ()
    else begin
      let track = Tel.Recorder.fresh_track cfg.telemetry "srv/repl" in
      let record name ev =
        Mutex.lock tel_mu;
        Tel.Recorder.record cfg.telemetry
          ~at:((Unix.gettimeofday () -. started_at) *. 1e6)
          ~track ~name ev;
        Mutex.unlock tel_mu
      in
      fun name f ->
        record name Tel.Event.Req_begin;
        f ();
        record name Tel.Event.Req_end
    end
  in
  let repl_log = Repl.Log.create () in
  let hub =
    Repl.Shipper.create ~window:cfg.repl_window ~cluster:cfg.repl_cluster
      ~span:repl_span ~log:repl_log ()
  in
  let mk_pipe () =
    let r, w = Unix.pipe () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    (r, w)
  in
  let sh =
    Array.init cfg.shards (fun i ->
        let store = stores.(i) in
        let wake_r, wake_w = mk_pipe () in
        {
          sh_id = i;
          sh_store = store;
          (* contract (see Txn.create): the bound stores must be empty
             when the server starts — there is no enumeration entry
             point to backfill versions/indexes from. The known
             families' init entries all build empty tables. The index
             needs a single lane: this shard already owns exactly the
             keys congruent to i mod shards. *)
          sh_txn = Txn.create ~lanes:1 ~value_color:bnd.b_vcolor ();
          sh_lengths = Hashtbl.create 1024;
          sh_vbuf = store.st_alloc (max 1 cfg.vsize);
          sh_obuf = store.st_alloc (max 1 cfg.vsize);
          sh_latch = Mutex.create ();
          sh_inbox = Msq.create ();
          sh_depth = Atomic.make 0;
          sh_wake_r = wake_r;
          sh_wake_w = wake_w;
          sh_in_mu = Mutex.create ();
          sh_incoming = Queue.create ();
          sh_conns = [];
          sh_track =
            (if cfg.telemetry == Tel.Recorder.null then 0
             else
               Tel.Recorder.fresh_track cfg.telemetry
                 (Printf.sprintf "srv/shard%d" i));
        })
  in
  let a_wake_r, a_wake_w = mk_pipe () in
  let t =
    {
      cfg;
      bnd;
      sh;
      listen_fd;
      t_port;
      started_at;
      repl_log;
      hub;
      role_mu = Mutex.create ();
      t_role =
        (match replica_of with
        | Some addr -> Replica_of addr
        | None -> Primary);
      n_applied = Atomic.make 0;
      n_fence_timeouts = Atomic.make 0;
      tel_mu;
      a_wake_r;
      a_wake_w;
      conns_accepted = Atomic.make 0;
      conns_open = Atomic.make 0;
      conns_rejected = Atomic.make 0;
      n_gets = Atomic.make 0;
      n_sets = Atomic.make 0;
      n_dels = Atomic.make 0;
      n_hits = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_bad = Atomic.make 0;
      n_batches = Atomic.make 0;
      n_coalesced = Atomic.make 0;
      n_getv = Atomic.make 0;
      n_cas = Atomic.make 0;
      n_cas_conflicts = Atomic.make 0;
      n_txns = Atomic.make 0;
      n_txn_aborts = Atomic.make 0;
      n_scans = Atomic.make 0;
      n_scan_items = Atomic.make 0;
      n_xshard = Atomic.make 0;
      m_mu = Mutex.create ();
      h_latency = Tel.Metrics.histogram metrics "server latency (us)";
      h_qwait = Tel.Metrics.histogram metrics "queue wait (us)";
      h_scan_len = Tel.Metrics.histogram metrics "scan length (items)";
      obs = Obs.Registry.create ();
      d_mu = Mutex.create ();
      d_cv = Condition.create ();
      draining = Atomic.make false;
      shutdown_req = false;
      drain_started = false;
      drained = false;
      n_dispatched = 0;
      reg_mu = Mutex.create ();
      reg_cv = Condition.create ();
      reg_q = [];
      reg_stop = false;
      registrar = None;
      acceptor = None;
      supervisor = None;
      domains = [];
    }
  in
  (* live metrics (lib/obs): server counters and summaries, per-shard
     inbox depths, replication shipper gauges, then whatever the
     backend store contributes (pool lane phases, steps, declassify
     counts). Registered before the first thread starts so
     `stats metrics` is complete from the first request on. *)
  (let reg = t.obs in
   let ac name help (a : int Atomic.t) =
     Obs.Registry.gauge reg ~help name (fun () -> float_of_int (Atomic.get a))
   in
   Obs.Registry.multi_gauge reg ~help:"requests served, by operation"
     "privagic_server_ops_total" (fun () ->
       [
         ([ ("op", "get") ], float_of_int (Atomic.get t.n_gets));
         ([ ("op", "set") ], float_of_int (Atomic.get t.n_sets));
         ([ ("op", "del") ], float_of_int (Atomic.get t.n_dels));
         ([ ("op", "getv") ], float_of_int (Atomic.get t.n_getv));
         ([ ("op", "cas") ], float_of_int (Atomic.get t.n_cas));
         ([ ("op", "scan") ], float_of_int (Atomic.get t.n_scans));
         ([ ("op", "txn") ], float_of_int (Atomic.get t.n_txns));
       ]);
   ac "privagic_server_hits_total" "get requests answered with a value"
     t.n_hits;
   ac "privagic_server_shed_total" "requests shed above the high-water mark"
     t.n_shed;
   ac "privagic_server_protocol_errors_total" "malformed request lines"
     t.n_bad;
   ac "privagic_server_batches_total" "executor batches" t.n_batches;
   ac "privagic_server_coalesced_total" "gets coalesced inside a batch"
     t.n_coalesced;
   ac "privagic_server_conns_accepted_total" "connections accepted"
     t.conns_accepted;
   ac "privagic_server_conns_open" "connections currently open" t.conns_open;
   ac "privagic_server_conns_rejected_total"
     "connections refused at the select fd cap" t.conns_rejected;
   ac "privagic_server_xshard_total"
     "requests routed or committed across shards" t.n_xshard;
   ac "privagic_server_repl_applied_total" "deltas applied while a replica"
     t.n_applied;
   ac "privagic_server_repl_fence_timeouts_total" "sync acks that timed out"
     t.n_fence_timeouts;
   ac "privagic_server_cas_conflicts_total"
     "CAS guards that lost to an earlier writer" t.n_cas_conflicts;
   Obs.Registry.gauge reg
     ~help:"transactions committed (including single-op cas)"
     "privagic_txn_commits_total" (fun () ->
       float_of_int
         (Array.fold_left (fun acc s -> acc + Txn.commits s.sh_txn) 0 t.sh));
   Obs.Registry.gauge reg ~help:"transactions aborted by a CAS guard"
     "privagic_txn_aborts_total" (fun () ->
       float_of_int
         (Array.fold_left (fun acc s -> acc + Txn.aborts s.sh_txn) 0 t.sh));
   Obs.Registry.summary reg ~help:"items returned per range scan"
     "privagic_scan_items" (fun () ->
       Mutex.lock t.m_mu;
       let p = Tel.Metrics.pctiles t.h_scan_len in
       Mutex.unlock t.m_mu;
       p);
   Obs.Registry.multi_gauge reg ~help:"pending cross-shard requests per shard"
     "privagic_server_queue_depth" (fun () ->
       Array.to_list
         (Array.map
            (fun s ->
              ( [ ("shard", string_of_int s.sh_id) ],
                float_of_int (Atomic.get s.sh_depth) ))
            t.sh));
   Obs.Registry.gauge reg ~help:"replication log head sequence"
     "privagic_repl_seq" (fun () -> float_of_int (Repl.Log.head t.repl_log));
   Obs.Registry.summary reg ~help:"request latency (microseconds)"
     "privagic_server_latency_us" (fun () ->
       Mutex.lock t.m_mu;
       let p = Tel.Metrics.pctiles t.h_latency in
       Mutex.unlock t.m_mu;
       p);
   Obs.Registry.summary reg ~help:"queue wait (microseconds)"
     "privagic_server_queue_wait_us" (fun () ->
       Mutex.lock t.m_mu;
       let p = Tel.Metrics.pctiles t.h_qwait in
       Mutex.unlock t.m_mu;
       p);
   Repl.Shipper.register_obs t.hub reg;
   (* one store registers its fixed-name gauges; with several shards the
      other backends' counters are visible through `stats` instead
      (registering all would collide on metric names) *)
   stores.(0).st_register_obs reg);
  t.domains <-
    Array.to_list
      (Array.map (fun s -> Domain.spawn (fun () -> shard_loop t s)) t.sh);
  t.registrar <- Some (Thread.create (fun () -> registrar_loop t) ());
  t.supervisor <- Some (Thread.create (fun () -> supervisor_loop t) ());
  t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t) ());
  t

let port t = t.t_port
let metrics_registry t = t.obs
let is_draining t = Atomic.get t.draining

let drain t =
  Mutex.lock t.d_mu;
  if t.drain_started then begin
    while not t.drained do
      Condition.wait t.d_cv t.d_mu
    done;
    Mutex.unlock t.d_mu
  end
  else begin
    t.drain_started <- true;
    Condition.broadcast t.d_cv (* releases an idle supervisor *);
    Mutex.unlock t.d_mu;
    Atomic.set t.draining true;
    wake_fd t.a_wake_w;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    Array.iter wake t.sh;
    (* stage 1: wait until every shard has dispatched all parsed work —
       after this, nothing new can enter any inbox *)
    Mutex.lock t.d_mu;
    while t.n_dispatched < t.cfg.shards do
      Condition.wait t.d_cv t.d_mu
    done;
    Mutex.unlock t.d_mu;
    (* stage 2: close the inboxes; each loop drains to empty-after-close
       (the Msqueue drain protocol — no queued request is lost), fills,
       flushes, and exits *)
    Array.iter (fun s -> Msq.close s.sh_inbox) t.sh;
    Array.iter wake t.sh;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* stop the registrar after the last shard exits: it flushes any
       handshake still queued, so its ship thread exists before the
       shipper's drain below bounds every link's lifetime *)
    Mutex.lock t.reg_mu;
    t.reg_stop <- true;
    Condition.broadcast t.reg_cv;
    Mutex.unlock t.reg_mu;
    (match t.registrar with Some th -> Thread.join th | None -> ());
    (* the log is final now: flush its tail to every replica and wait
       (bounded) for their acks before tearing the backends down *)
    Repl.Shipper.drain t.hub ~timeout_s:5.0;
    Array.iter (fun s -> s.sh_store.st_drain ()) t.sh;
    Array.iter
      (fun s ->
        try
          Unix.close s.sh_wake_r;
          Unix.close s.sh_wake_w
        with Unix.Unix_error _ -> ())
      t.sh;
    (try
       Unix.close t.a_wake_r;
       Unix.close t.a_wake_w
     with Unix.Unix_error _ -> ());
    Mutex.lock t.d_mu;
    t.drained <- true;
    Condition.broadcast t.d_cv;
    Mutex.unlock t.d_mu
  end

let wait t =
  Mutex.lock t.d_mu;
  while not t.drained do
    Condition.wait t.d_cv t.d_mu
  done;
  Mutex.unlock t.d_mu

(* ------------------------------------------------------------------ *)
(* stats *)

type stats = {
  s_uptime : float;
  s_conns_accepted : int;
  s_conns_open : int;
  s_ops : int;
  s_gets : int;
  s_sets : int;
  s_dels : int;
  s_hits : int;
  s_shed : int;
  s_bad : int;
  s_batches : int;
  s_coalesced : int;
  s_depth : int array;
  s_latency : Tel.Metrics.pctiles;
  s_queue_wait : Tel.Metrics.pctiles;
  s_role : string;
  s_replicas : int;
  s_repl_lag_us : float;
  s_repl_seq : int;
  s_applied : int;
  s_fence_timeouts : int;
  s_getv : int;
  s_cas : int;
  s_cas_conflicts : int;
  s_txns : int;
  s_txn_commits : int;
  s_txn_aborts : int;
  s_scans : int;
  s_scan_items : int;
  s_shards : int;
  s_xshard : int;
  s_conns_rejected : int;
  s_fd_cap : int;
}

let stats t =
  let g = Atomic.get in
  Mutex.lock t.m_mu;
  let lat = Tel.Metrics.pctiles t.h_latency in
  let qw = Tel.Metrics.pctiles t.h_qwait in
  Mutex.unlock t.m_mu;
  {
    s_uptime = Unix.gettimeofday () -. t.started_at;
    s_conns_accepted = g t.conns_accepted;
    s_conns_open = g t.conns_open;
    s_ops =
      g t.n_gets + g t.n_sets + g t.n_dels + g t.n_getv + g t.n_cas
      + g t.n_txns + g t.n_scans;
    s_gets = g t.n_gets;
    s_sets = g t.n_sets;
    s_dels = g t.n_dels;
    s_hits = g t.n_hits;
    s_shed = g t.n_shed;
    s_bad = g t.n_bad;
    s_batches = g t.n_batches;
    s_coalesced = g t.n_coalesced;
    s_depth = Array.map (fun s -> Atomic.get s.sh_depth) t.sh;
    s_latency = lat;
    s_queue_wait = qw;
    s_role = role_name t;
    s_replicas = Repl.Shipper.connected t.hub;
    s_repl_lag_us = Repl.Shipper.last_lag_us t.hub;
    s_repl_seq = Repl.Log.head t.repl_log;
    s_applied = g t.n_applied;
    s_fence_timeouts = g t.n_fence_timeouts;
    s_getv = g t.n_getv;
    s_cas = g t.n_cas;
    s_cas_conflicts = g t.n_cas_conflicts;
    s_txns = g t.n_txns;
    s_txn_commits =
      Array.fold_left (fun acc s -> acc + Txn.commits s.sh_txn) 0 t.sh;
    s_txn_aborts =
      Array.fold_left (fun acc s -> acc + Txn.aborts s.sh_txn) 0 t.sh;
    s_scans = g t.n_scans;
    s_scan_items = g t.n_scan_items;
    s_shards = t.cfg.shards;
    s_xshard = g t.n_xshard;
    s_conns_rejected = g t.conns_rejected;
    s_fd_cap = fd_cap;
  }

let stats_fields t =
  let s = stats t in
  let f = Printf.sprintf "%.1f" in
  [
    ("family", t.bnd.b_family);
    ("backend", t.sh.(0).sh_store.st_name);
    ("uptime_s", f s.s_uptime);
    ("lanes", string_of_int t.cfg.lanes);
    ("conns_accepted", string_of_int s.s_conns_accepted);
    ("conns_open", string_of_int s.s_conns_open);
    ("ops", string_of_int s.s_ops);
    ("gets", string_of_int s.s_gets);
    ("sets", string_of_int s.s_sets);
    ("dels", string_of_int s.s_dels);
    ("hits", string_of_int s.s_hits);
    ("shed", string_of_int s.s_shed);
    ("protocol_errors", string_of_int s.s_bad);
    ("batches", string_of_int s.s_batches);
    ("coalesced_gets", string_of_int s.s_coalesced);
    ("queue_depth",
     String.concat "," (Array.to_list (Array.map string_of_int s.s_depth)));
    ("latency_us_p50", f s.s_latency.Tel.Metrics.p50);
    ("latency_us_p95", f s.s_latency.Tel.Metrics.p95);
    ("latency_us_p99", f s.s_latency.Tel.Metrics.p99);
    ("queue_wait_us_p50", f s.s_queue_wait.Tel.Metrics.p50);
    (* replication fields append after the historical ones so existing
       parsers that read positionally keep working *)
    ("role", s.s_role);
    ("replicas_connected", string_of_int s.s_replicas);
    ("replication_lag_us", f s.s_repl_lag_us);
    ("repl_seq", string_of_int s.s_repl_seq);
    ("repl_applied", string_of_int s.s_applied);
    ("repl_fence_timeouts", string_of_int s.s_fence_timeouts);
    ("latency_us_p999", f s.s_latency.Tel.Metrics.p999);
    ("latency_us_max", f s.s_latency.Tel.Metrics.p_max);
    (* txn/index fields append after everything historical, same
       positional-compatibility rule as above *)
    ("getv", string_of_int s.s_getv);
    ("cas", string_of_int s.s_cas);
    ("cas_conflicts", string_of_int s.s_cas_conflicts);
    ("txns", string_of_int s.s_txns);
    ("txn_commits", string_of_int s.s_txn_commits);
    ("txn_aborts", string_of_int s.s_txn_aborts);
    ("scans", string_of_int s.s_scans);
    ("scan_items", string_of_int s.s_scan_items);
    (* sharding fields (ISSUE 10), appended last *)
    ("shards", string_of_int s.s_shards);
    ("xshard", string_of_int s.s_xshard);
    ("fd_cap", string_of_int s.s_fd_cap);
    ("conns_rejected", string_of_int s.s_conns_rejected);
  ]

let () =
  stats_fields_ref := stats_fields;
  drain_ref := drain
