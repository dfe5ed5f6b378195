(* The serving shell around the sans-IO shard cores (DESIGN.md §8.14).

   The keyspace is hash-partitioned across N single-writer shards
   ([key mod shards]). Each shard's logic — parsing, routing, batching,
   two-phase commit, completions, backpressure, the drain — is a
   [Core.t] that consumes events and emits effects. This file is the IO
   around the cores: one select loop per shard on its own domain over
   nonblocking sockets and a self-pipe (no timeout polling on the
   serving path: every event that needs a loop writes its pipe), the
   replication links each loop hosts, accepting (loop 0), and the
   drain, all reached through an [io] record. A running server is its
   N loop domains over the [Unix] one, and no other thread.

   Shards talk through one bounded Msqueue inbox each: requests routed
   to a key's shard, and their completions coming home to the
   connection's owner. Replication: all shards append to one shared
   commit log while holding their latch, so the merged sequence is
   monotone and, per key, log order equals commit order. *)

module Msq = Privagic_runtime.Msqueue
module Repl = Privagic_replication
module Obs = Privagic_obs
module Metrics = Privagic_obs.Metrics
module Ring = Privagic_obs.Ring
module Txn = Privagic_txn.Txn
open Privagic_vm
include Core.Types

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
    st_attach_ring = Pinterp.attach_ring p;
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

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    shards = 1;
    queue_depth = 64;
    policy = Block;
    max_batch = 8;
    vsize = 32;
    trace = false;
    repl_window = 1024;
    repl_cluster = "privagic";
  }

(* [Unix.select] is limited to fd values below FD_SETSIZE (1024). The
   cap is on open client connections plus replication links, counted
   process-fd-conservatively: headroom is left for the listen socket,
   the per-shard self-pipes and stdio. Beyond the cap loop 0 refuses
   with a clear error instead of corrupting every loop's select. *)
let fd_cap = 960

(* A replication link whose pending write made no progress for this
   long (µs) is dropped, so a wedged sync replica stops gating; a
   client that stalls mid-flush during the drain is dropped after
   [drain_stall_us]. *)
let link_stall_us = 30e6
let drain_stall_us = 5e6

(* How long (µs) a draining loop lingers for its links to ack the log
   head once every core has finished. *)
let linger_us = 5e6

(* ------------------------------------------------------------------ *)
(* the OS, as a loop reaches it (see the .mli) *)

type 'fd io = {
  select : 'fd list -> 'fd list -> float -> 'fd list * 'fd list;
  read : 'fd -> Bytes.t -> int -> int -> int;
  write : 'fd -> Bytes.t -> int -> int -> int;
  accept : 'fd -> 'fd;
  close : 'fd -> unit;
  pipe : unit -> 'fd * 'fd;
  clock : unit -> float;
}

let unix_io =
  let nonblock fd = Unix.set_nonblock fd; fd in
  { select = (fun rd wr timeout -> let rd, wr, _ = Unix.select rd wr [] timeout in (rd, wr));
    read = Unix.read; write = Unix.write; close = Unix.close;
    accept =
      (fun fd ->
        let c = nonblock (fst (Unix.accept fd)) in
        (try Unix.setsockopt c Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        c);
    pipe = (fun () -> let r, w = Unix.pipe ~cloexec:true () in (nonblock r, nonblock w));
    clock = (fun () -> Unix.gettimeofday () *. 1e6) }

(* A connection's IO side: its socket and the bytes not yet written. *)
type 'fd sconn = {
  fd : 'fd;
  obuf : Buffer.t;                  (* rendered, not yet staged *)
  mutable wbuf : Bytes.t;           (* staged write chunk *)
  mutable woff : int;
  mutable moved : float;            (* µs: the staged chunk last progressed *)
  mutable after : [ `Serve | `Close | `Handoff of bool * int ];
      (* what to do once the bytes are out *)
}

(* A shard loop's state between two passes of [iterate]. *)
type 'fd loop = {
  core : Core.t;
  inbox : Core.item Msq.t;
  (* traced servers only: the shard's VM records into a virtual-clock
     ring, its loop into a wall-clock one (request spans) *)
  vm_ring : Ring.t option;
  ring : Ring.t option;
  incoming : (int * 'fd) Msq.t;     (* loop 0 -> loop *)
  wake_r : 'fd;                     (* the self-pipe, in our select set *)
  wake_w : 'fd;                     (* any domain writes it to wake us *)
  conns : (int, 'fd sconn) Hashtbl.t;
  rbuf : Bytes.t;
  mutable links : ('fd sconn * Repl.Shipper.link) list;  (* hosted here *)
  asleep : bool Atomic.t;           (* a log append must wake us *)
  mutable unsubscribe : (unit -> unit) option;
  mutable listening : bool;         (* loop 0, until it sees the drain *)
  mutable finished : bool;          (* counted in [n_finished] *)
  mutable linger : float;
  mutable running : bool;
}

type 'fd shell = { io : 'fd io; listen_fd : 'fd; loops : 'fd loop array }
type any_shell = Shell : 'fd shell -> any_shell

type t = {
  g : Core.group;  (* config, bindings, the shared log and the role *)
  shell : any_shell;               (* the loops over their IO *)
  mutable t_port : int;            (* set once, by [start] *)
  clock : unit -> float;
  started_at : float;
  (* replication *)
  hub : Repl.Shipper.t;
  n_applied : int Atomic.t;        (* deltas applied while a replica *)
  (* counters written outside the shard cores *)
  conns_accepted : int Atomic.t;
  conns_open : int Atomic.t;
  conns_rejected : int Atomic.t;   (* refused at the fd cap *)
  obs : Obs.Registry.t; (* live metrics, served via `stats metrics` *)
  (* lifecycle *)
  draining : bool Atomic.t;
  n_finished : int Atomic.t;       (* cores whose drain finished *)
  pipes_closed : bool Atomic.t;    (* the self-pipes, after the joins *)
  mutable domains : unit Domain.t list;  (* set once, by [start] *)
}

let now_us t = t.clock () -. t.started_at

(* Wire-capture tap for the robust-safety monitor: every response byte the
   server puts on a client connection also goes here (process-wide). *)
let wire_tap : (string -> unit) option ref = ref None

let set_wire_tap f = wire_tap := f

(* ------------------------------------------------------------------ *)
(* replica-side application: a delta from the primary executes through
   the same entry paths a client request would, under the owning
   shard's latch, and mirrors the primary's numbering into the local
   log — which is what lets a promoted replica serve downstream
   replicas (and its own convergence oracle) from the same stream
   positions. The replica client applies strictly in seq order, so the
   mirrored log stays dense even though deltas fan out across shards. *)

let apply t ~seq ~key ~exec ~op =
  let c = t.g.Core.cores.(Core.shard_of t.g key) in
  Core.with_latches t.g [ c.Core.id ] (fun () ->
      match exec c with
      | Ok () -> (
        match Repl.Log.append_at t.g.Core.log ~seq op with
        | () ->
          Atomic.incr t.n_applied;
          Ok ()
        | exception Invalid_argument m -> Error m)
      | Error _ as e -> e)

let apply_put t ~seq ~key ~payload =
  apply t ~seq ~key
    ~op:(Repl.Delta.Put { key; color = t.g.Core.bnd.b_vcolor; payload })
    ~exec:(fun c ->
      match Core.commit_set c key payload with
      | Protocol.Stored -> Ok ()
      | Protocol.Error_msg m -> Error m
      | _ -> Error "unexpected response applying put")

let apply_del t ~seq ~key =
  apply t ~seq ~key ~op:(Repl.Delta.Del { key }) ~exec:(fun c ->
      match Core.commit_del c key with
      (* Not_found still mirrors: the primary numbered this delta, and the
         replica's log must stay dense to keep stream positions aligned *)
      | Protocol.Deleted | Protocol.Not_found -> Ok ()
      | Protocol.Error_msg m -> Error m
      | _ -> Error "unexpected response applying del")

let apply_delta t ({ seq; op } : Repl.Delta.t) =
  match op with
  | Put { key; payload; _ } -> apply_put t ~seq ~key ~payload
  | Del { key } -> apply_del t ~seq ~key

let promote t = Atomic.set t.g.Core.role Primary

let role_name t =
  match Atomic.get t.g.Core.role with
  | Primary -> "primary"
  | Replica_of a -> "replica:" ^ a

let is_replica t = Core.is_replica t.g
let repl_log t = t.g.Core.log
let repl_hub t = t.hub

(* ------------------------------------------------------------------ *)
(* the per-shard event loop (one domain each): IO around the core *)

let close_fd x fd = try x.io.close fd with Unix.Unix_error _ -> ()
let bang = Bytes.make 1 '!'

(* A full pipe already means a pending wakeup, and a closed one has no
   reader to wake. *)
let wake x l = try ignore (x.io.write l.wake_w bang 0 1) with Unix.Unix_error _ -> ()

(* One read takes all a pipe holds. *)
let clear_wakes x l =
  try ignore (x.io.read l.wake_r l.rbuf 0 (Bytes.length l.rbuf)) with Unix.Unix_error _ -> ()

let wake_all t =
  let (Shell x) = t.shell in
  Array.iter (wake x) x.loops

(* Start the drain, once: each loop sees the flag when it wakes and
   drains itself. *)
let start_drain t = if Atomic.compare_and_set t.draining false true then wake_all t

(* Loop 0 takes the whole backlog of its nonblocking listen socket. It
   refuses a connection past [fd_cap], and hands the [i]th one it
   admits to shard [i mod N]. *)
let rec accept_all t x =
  match x.io.accept x.listen_fd with
  | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> accept_all t x
  | exception Unix.Unix_error _ -> ()
  | fd when Atomic.get t.conns_open + Repl.Shipper.connected t.hub >= fd_cap ->
    (* select-based loops cannot take fds past FD_SETSIZE: refuse
       loudly instead of corrupting every shard's readiness set *)
    Atomic.incr t.conns_rejected;
    let msg =
      Protocol.render
        (Protocol.Error_msg (Printf.sprintf "too many connections (fd cap %d)" fd_cap))
    in
    (match !wire_tap with None -> () | Some f -> f msg);
    (try ignore (x.io.write fd (Bytes.unsafe_of_string msg) 0 (String.length msg))
     with Unix.Unix_error _ -> ());
    close_fd x fd;
    accept_all t x
  | fd ->
    Atomic.incr t.conns_open;
    let i = Atomic.fetch_and_add t.conns_accepted 1 in
    let l = x.loops.(i mod Array.length x.loops) in
    Msq.push l.incoming (i, fd);
    (* loop 0 adopts its own share after this select *)
    if l.core.Core.id > 0 then wake x l;
    accept_all t x

let has_output c = c.woff < Bytes.length c.wbuf || Buffer.length c.obuf > 0

(* Push bytes out nonblockingly; false when the peer is gone. A slow
   peer accumulates buffer and gets picked up by write-readiness.
   [moved] is when the staged chunk was staged or last progressed. *)
let write_out x c ~now =
  let rec go () =
    if c.woff >= Bytes.length c.wbuf then begin
      if Buffer.length c.obuf = 0 then true
      else begin
        c.wbuf <- Buffer.to_bytes c.obuf;
        Buffer.clear c.obuf;
        c.woff <- 0;
        c.moved <- now;
        go ()
      end
    end
    else
      match x.io.write c.fd c.wbuf c.woff (Bytes.length c.wbuf - c.woff) with
      | 0 -> true
      | n ->
        c.woff <- c.woff + n;
        c.moved <- now;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> false
  in
  go ()

let stalled c ~now ~limit = has_output c && now -. c.moved > limit

let rec pop_all q f =
  match Msq.pop q with
  | Some x ->
    f x;
    pop_all q f
  | None -> ()

let emit t x l = function
  | Core.Write (id, b) -> (
    (match !wire_tap with None -> () | Some f -> f b);
    match Hashtbl.find_opt l.conns id with
    | Some c -> Buffer.add_string c.obuf b
    | None -> ())
  | Core.Close id ->
    Option.iter (fun c -> c.after <- `Close) (Hashtbl.find_opt l.conns id)
  | Core.Handoff (id, sync, from_seq) ->
    Option.iter
      (fun c -> c.after <- `Handoff (sync, from_seq))
      (Hashtbl.find_opt l.conns id)
  | Core.Send (r, item) -> Msq.push x.loops.(r).inbox item
  | Core.Wake k ->
    (* never ourselves: the loop runs its core again before it sleeps *)
    if k <> l.core.Core.id then wake x x.loops.(k)
  | Core.Shutdown -> start_drain t

(* One pass of loop [i]: select, then read and accept, then settle the
   core, then write, then the exit rule. False once the loop is over. *)
let iterate t i =
  let (Shell x) = t.shell in
  let l = x.loops.(i) in
  let core = l.core in
  let emit = emit t x l in
  let step ev = Core.handle core ~now:(now_us t) ~emit ev in
  let rec run () = if Core.run core ~now:(now_us t) ~emit then run () in
  (* Feed the inbox to the core and run it, until the inbox stays empty
     (a completion that arrives meanwhile is flushed in this pass). *)
  let rec settle () =
    pop_all l.inbox (fun item -> step (Core.Inbox item));
    run ();
    if not (Msq.is_empty l.inbox) then settle ()
  in
  let drop id c =
    close_fd x c.fd;
    Atomic.decr t.conns_open;
    Hashtbl.remove l.conns id
  in
  let kill id c =
    drop id c;
    step (Core.Dead id)
  in
  (* Replication links hosted here. The log wakes this loop on an append
     only while it sleeps with links to fill: [asleep] goes up before
     the links are filled from the head, so an append is either seen by
     that fill or finds the flag up. One subscription per loop, held
     while it hosts links. *)
  let ship_span =
    match l.ring with
    | None -> fun f -> f ()
    | Some r -> Ring.span r ~name:(Ring.intern r "repl_ship")
  in
  (* a dead sync link stops gating: the shards it held may go on *)
  let keep_links f =
    l.links <-
      List.filter
        (fun (c, lk) ->
          f (c, lk)
          || begin
            close_fd x c.fd;
            Repl.Shipper.detach lk;
            if Repl.Shipper.is_sync lk then Core.wake_fenced core ~emit;
            false
          end)
        l.links;
    if l.links = [] then begin
      Option.iter (fun u -> u ()) l.unsubscribe;
      l.unsubscribe <- None
    end
  in
  let host id c ~sync ~from_seq =
    Atomic.decr t.conns_open;
    Hashtbl.remove l.conns id;
    if l.unsubscribe = None then
      l.unsubscribe <-
        Some
          (Repl.Log.subscribe t.g.Core.log (fun () ->
               if Atomic.get l.asleep && Atomic.compare_and_set l.asleep true false
               then wake x l));
    l.links <- (c, Repl.Shipper.attach t.hub ~sync ~from_seq) :: l.links
  in
  (* fill every link from the log and write what it rendered: each
     write of a run of frames is a [repl_ship] span on the loop's ring *)
  let ship ~now =
    keep_links (fun (c, lk) ->
        Repl.Shipper.fill t.hub lk ~now;
        Buffer.add_string c.obuf (Repl.Shipper.output lk);
        Repl.Shipper.alive lk
        && ((not (has_output c)) || ship_span (fun () -> write_out x c ~now))
        && not (stalled c ~now ~limit:link_stall_us))
  in
  (* acks; false on EOF or a dead link *)
  let read_acks ~now (c, lk) =
    match x.io.read c.fd l.rbuf 0 (Bytes.length l.rbuf) with
    | 0 -> false
    | n ->
      Repl.Shipper.feed lk l.rbuf n ~now;
      if Repl.Shipper.is_sync lk then Core.wake_fenced core ~emit;
      Repl.Shipper.alive lk
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  let now = now_us t in
  if l.links <> [] then begin
    Atomic.set l.asleep true;
    ship ~now
  end;
  let draining = Atomic.get t.draining in
  let accepting = l.listening && not draining in
  (* no timeout on the serving path: every event that needs us writes
     the self-pipe. The select wakes by the oldest held fence's
     deadline, a stall deadline or the drain linger, whichever is
     first. *)
  let rds = ref [ l.wake_r ] and wrs = ref [] in
  if accepting then rds := x.listen_fd :: !rds;
  let wake_by =
    ref (Float.min l.linger (Option.value (Core.deadline core) ~default:infinity))
  in
  let watch c ~limit =
    if has_output c then begin
      wrs := c.fd :: !wrs;
      wake_by := Float.min !wake_by (c.moved +. limit)
    end
  in
  Hashtbl.iter
    (fun id c ->
      if Core.wants_read core id then rds := c.fd :: !rds;
      watch c ~limit:(if draining then drain_stall_us else infinity))
    l.conns;
  List.iter
    (fun (c, _) ->
      rds := c.fd :: !rds;
      watch c ~limit:link_stall_us)
    l.links;
  let timeout =
    if !wake_by = infinity then -1.0
    else Float.max 0.0 ((!wake_by -. now) /. 1e6)
  in
  let each f = List.iter (fun (id, c) -> f id c) (List.of_seq (Hashtbl.to_seq l.conns)) in
  (match x.io.select !rds !wrs timeout with
  | rd, _ ->
    if List.mem l.wake_r rd then clear_wakes x l;
    if accepting && List.mem x.listen_fd rd then accept_all t x;
    each (fun id c ->
        if List.mem c.fd rd then
          match x.io.read c.fd l.rbuf 0 (Bytes.length l.rbuf) with
          | 0 -> step (Core.Eof id)
          | n -> step (Core.Read (id, l.rbuf, n))
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
          | exception Unix.Unix_error _ -> kill id c);
    let now = now_us t in
    keep_links (fun (c, lk) -> (not (List.mem c.fd rd)) || read_acks ~now (c, lk))
  | exception Unix.Unix_error (EINTR, _, _) -> ());
  Atomic.set l.asleep false;
  pop_all l.incoming (fun (id, fd) ->
      Hashtbl.replace l.conns id
        { fd; obuf = Buffer.create 256; wbuf = Bytes.empty; woff = 0; moved = now;
          after = `Serve };
      step (Core.Adopt id));
  (* re-read: the wakeup that announced the drain may be the one this
     select consumed *)
  if Atomic.get t.draining then begin
    if l.listening then close_fd x x.listen_fd;
    l.listening <- false;
    step Core.Drain
  end;
  settle ();
  let now = now_us t in
  each (fun id c ->
      if not (write_out x c ~now) then kill id c
      else if has_output c then begin
        if draining && stalled c ~now ~limit:drain_stall_us then kill id c
      end
      else
        match c.after with
        | `Serve -> ()
        | `Close -> drop id c
        | `Handoff (sync, from_seq) ->
          (* prior responses flushed: the connection is a link now *)
          host id c ~sync ~from_seq);
  (* The drain: the loop exits once every core has finished (the last
     to finish wakes the others) and each of its links has acked the
     log head, or the linger has passed. *)
  if Core.finished core && not (Hashtbl.fold (fun _ c b -> b || has_output c) l.conns false)
  then begin
    each drop;
    if not l.finished then begin
      l.finished <- true;
      if Atomic.fetch_and_add t.n_finished 1 = Array.length x.loops - 1 then wake_all t
    end
  end;
  if l.finished && Atomic.get t.n_finished = Array.length x.loops then begin
    if l.linger = infinity then l.linger <- now +. linger_us;
    keep_links (fun (_, lk) -> now < l.linger && not (Repl.Shipper.caught_up t.hub lk));
    l.running <- l.links <> []
  end;
  (* Connections loop 0 handed over while this loop finished: every
     hand-off precedes loop 0's own finish, so none comes later. *)
  if not l.running then
    pop_all l.incoming (fun (_, fd) ->
        close_fd x fd;
        Atomic.decr t.conns_open);
  l.running

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let port t = t.t_port

let rings t =
  let (Shell x) = t.shell in
  List.concat_map (fun l -> List.filter_map Fun.id [ l.vm_ring; l.ring ]) (Array.to_list x.loops)

let is_draining t = Atomic.get t.draining

(* Join every loop; the first joiner past them closes the self-pipes. *)
let wait t =
  List.iter Domain.join t.domains;
  let (Shell x) = t.shell in
  if Atomic.compare_and_set t.pipes_closed false true then
    Array.iter (fun l -> close_fd x l.wake_r; close_fd x l.wake_w) x.loops

let drain t =
  start_drain t;
  wait t

(* ------------------------------------------------------------------ *)
(* stats: the owner-written per-shard counters and histograms, merged
   when read *)

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
  s_latency : Metrics.pctiles;
  s_queue_wait : Metrics.pctiles;
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

let cores t = t.g.Core.cores
let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 (cores t)
let count t f = sum t (fun c -> f c.Core.n)
let merged t field = Metrics.merge (List.map field (Array.to_list (cores t)))

let stats t =
  let g = Atomic.get and n f = count t f in
  let open Core in
  {
    s_uptime = now_us t /. 1e6;
    s_conns_accepted = g t.conns_accepted;
    s_conns_open = g t.conns_open;
    s_ops =
      n (fun n -> n.gets + n.sets + n.dels + n.getv + n.cas + n.txns + n.scans);
    s_gets = n (fun n -> n.gets);
    s_sets = n (fun n -> n.sets);
    s_dels = n (fun n -> n.dels);
    s_hits = n (fun n -> n.hits);
    s_shed = n (fun n -> n.shed);
    s_bad = n (fun n -> n.bad);
    s_batches = n (fun n -> n.batches);
    s_coalesced = n (fun n -> n.coalesced);
    s_depth = Array.map (fun c -> g c.depth) t.g.cores;
    s_latency = Metrics.pctiles (merged t (fun c -> c.latency));
    s_queue_wait = Metrics.pctiles (merged t (fun c -> c.qwait));
    s_role = role_name t;
    s_replicas = Repl.Shipper.connected t.hub;
    s_repl_lag_us = Repl.Shipper.last_lag_us t.hub;
    s_repl_seq = Repl.Log.head t.g.Core.log;
    s_applied = g t.n_applied;
    s_fence_timeouts = n (fun n -> n.fence_timeouts);
    s_getv = n (fun n -> n.getv);
    s_cas = n (fun n -> n.cas);
    s_cas_conflicts = n (fun n -> n.cas_conflicts);
    s_txns = n (fun n -> n.txns);
    s_txn_commits = sum t (fun c -> Txn.commits c.txn);
    s_txn_aborts = sum t (fun c -> Txn.aborts c.txn);
    s_scans = n (fun n -> n.scans);
    s_scan_items = n (fun n -> n.scan_items);
    s_shards = t.g.Core.cfg.shards;
    s_xshard = n (fun n -> n.xshard);
    s_conns_rejected = g t.conns_rejected;
    s_fd_cap = fd_cap;
  }

let stats_fields t =
  let s = stats t in
  let f = Printf.sprintf "%.1f" in
  [
    ("family", t.g.Core.bnd.b_family);
    ("backend", t.g.Core.cores.(0).Core.store.st_name);
    ("uptime_s", f s.s_uptime);
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
    ("latency_us_p50", f s.s_latency.Metrics.p50);
    ("latency_us_p95", f s.s_latency.Metrics.p95);
    ("latency_us_p99", f s.s_latency.Metrics.p99);
    ("queue_wait_us_p50", f s.s_queue_wait.Metrics.p50);
    (* replication fields append after the historical ones so existing
       parsers that read positionally keep working *)
    ("role", s.s_role);
    ("replicas_connected", string_of_int s.s_replicas);
    ("replication_lag_us", f s.s_repl_lag_us);
    ("repl_seq", string_of_int s.s_repl_seq);
    ("repl_applied", string_of_int s.s_applied);
    ("repl_fence_timeouts", string_of_int s.s_fence_timeouts);
    ("latency_us_p999", f s.s_latency.Metrics.p999);
    ("latency_us_max", f s.s_latency.Metrics.p_max);
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

(* live metrics (lib/obs): server counters and summaries, per-shard
   inbox depths, replication shipper gauges, then whatever the backend
   store contributes (steps, externs, declassify counts). *)
let register_metrics t (store : store) =
  let reg = t.obs in
  let gauge name help f =
    Obs.Registry.gauge reg ~help name (fun () -> float_of_int (f ()))
  in
  let atomic name help a = gauge name help (fun () -> Atomic.get a) in
  let counter name help f = gauge name help (fun () -> count t f) in
  let open Core in
  Obs.Registry.multi_gauge reg ~help:"requests served, by operation"
    "privagic_server_ops_total" (fun () ->
      List.map
        (fun (op, f) -> ([ ("op", op) ], float_of_int (count t f)))
        [ ("get", fun n -> n.gets); ("set", fun n -> n.sets);
          ("del", fun n -> n.dels); ("getv", fun n -> n.getv);
          ("cas", fun n -> n.cas); ("scan", fun n -> n.scans);
          ("txn", fun n -> n.txns) ]);
  counter "privagic_server_hits_total" "get requests answered with a value"
    (fun n -> n.hits);
  counter "privagic_server_shed_total" "requests shed above the high-water mark"
    (fun n -> n.shed);
  counter "privagic_server_protocol_errors_total" "malformed request lines"
    (fun n -> n.bad);
  counter "privagic_server_batches_total" "executor batches" (fun n -> n.batches);
  counter "privagic_server_coalesced_total" "gets coalesced inside a batch"
    (fun n -> n.coalesced);
  atomic "privagic_server_conns_accepted_total" "connections accepted"
    t.conns_accepted;
  atomic "privagic_server_conns_open" "connections currently open" t.conns_open;
  atomic "privagic_server_conns_rejected_total"
    "connections refused at the select fd cap" t.conns_rejected;
  counter "privagic_server_xshard_total"
    "requests routed or committed across shards" (fun n -> n.xshard);
  atomic "privagic_server_repl_applied_total" "deltas applied while a replica"
    t.n_applied;
  counter "privagic_server_repl_fence_timeouts_total" "sync acks that timed out"
    (fun n -> n.fence_timeouts);
  counter "privagic_server_cas_conflicts_total"
    "CAS guards that lost to an earlier writer" (fun n -> n.cas_conflicts);
  gauge "privagic_txn_commits_total"
    "transactions committed (including single-op cas)" (fun () ->
      sum t (fun c -> Txn.commits c.txn));
  gauge "privagic_txn_aborts_total" "transactions aborted by a CAS guard"
    (fun () -> sum t (fun c -> Txn.aborts c.txn));
  Obs.Registry.summary reg ~help:"items returned per range scan"
    "privagic_scan_items" (fun () -> Metrics.pctiles (merged t (fun c -> c.scan_len)));
  Obs.Registry.multi_gauge reg ~help:"pending cross-shard requests per shard"
    "privagic_server_queue_depth" (fun () ->
      List.map
        (fun c ->
          ([ ("shard", string_of_int c.id) ], float_of_int (Atomic.get c.depth)))
        (Array.to_list (cores t)));
  gauge "privagic_repl_seq" "replication log head sequence" (fun () ->
      Repl.Log.head t.g.Core.log);
  Obs.Registry.summary reg ~help:"request latency (microseconds)"
    "privagic_server_latency_us" (fun () ->
      Metrics.pctiles (merged t (fun c -> c.latency)));
  Obs.Registry.summary reg ~help:"queue wait (microseconds)"
    "privagic_server_queue_wait_us" (fun () ->
      Metrics.pctiles (merged t (fun c -> c.qwait)));
  Repl.Shipper.register_obs t.hub reg;
  (* one store registers its fixed-name gauges; with several shards the
     other backends' counters are visible through `stats` instead
     (registering all would collide on metric names) *)
  store.st_register_obs reg

(* The verbs a core answers from server-wide state. *)
let info t = function
  | Protocol.Stats -> Protocol.Stats_reply (stats_fields t)
  | _ -> Protocol.Metrics_reply (Obs.Registry.expose t.obs)

(* The server's state over [io], with [listen] its listening endpoint:
   no domain runs a loop yet. *)
let create ?replica_of io ~listen cfg bnd (stores : store array) =
  let repl_log = Repl.Log.create () in
  let hub =
    Repl.Shipper.create ~window:cfg.repl_window ~cluster:cfg.repl_cluster
      ~log:repl_log ()
  in
  let t_role =
    Atomic.make (match replica_of with Some a -> Replica_of a | None -> Primary)
  in
  let traced f = if cfg.trace then Some (f ()) else None in
  (* traced, ring ids: VMs 0..n-1, loops n..2n-1 *)
  let vm_rings =
    Array.mapi
      (fun i (store : store) ->
        traced (fun () ->
            let r =
              Ring.create ~cap:(1 lsl 18) ~clock:Ring.Virtual ~id:i
                ~label:(Printf.sprintf "s%d" i) ()
            in
            store.st_attach_ring r;
            r))
      stores
  in
  let loop_rings =
    Array.init cfg.shards (fun i ->
        traced (fun () ->
            let r =
              Ring.create ~cap:(1 lsl 16) ~id:(cfg.shards + i)
                ~label:(Printf.sprintf "s%d/srv" i) ()
            in
            Array.iter (fun n -> ignore (Ring.intern r n)) Core.span_names;
            ignore (Ring.intern r "repl_ship");
            r))
  in
  let tracer i =
    match loop_rings.(i) with
    | None -> Core.untraced
    | Some r -> { Core.span = (fun name f -> Ring.span r ~name f) }
  in
  let rec t =
    lazy
      (let g =
         Core.group ~cfg ~bnd ~log:repl_log ~role:t_role
           ~synced:(fun seq -> Repl.Shipper.synced hub ~seq)
           ~info:(fun req -> info (Lazy.force t) req)
           ~self:(fun () -> (Domain.self () :> int))
           ~tracer stores
       in
       let loop core =
         let i = core.Core.id and wake_r, wake_w = io.pipe () in
         { core; inbox = Msq.create (); vm_ring = vm_rings.(i); ring = loop_rings.(i);
           incoming = Msq.create (); wake_r; wake_w; conns = Hashtbl.create 16;
           rbuf = Bytes.create 65536; links = []; asleep = Atomic.make false;
           unsubscribe = None; listening = i = 0; finished = false; linger = infinity;
           running = true }
       in
       {
         g; hub; t_port = 0;
         shell = Shell { io; listen_fd = listen; loops = Array.map loop g.Core.cores };
         clock = io.clock;
         started_at = io.clock ();
         n_applied = Atomic.make 0;
         conns_accepted = Atomic.make 0;
         conns_open = Atomic.make 0;
         conns_rejected = Atomic.make 0;
         obs = Obs.Registry.create ();
         draining = Atomic.make false;
         n_finished = Atomic.make 0;
         pipes_closed = Atomic.make false;
         domains = [];
       })
  in
  let t = Lazy.force t in
  (* registered before the first loop starts, so `stats metrics` is
     complete from the first request on *)
  register_metrics t stores.(0);
  t

let start ?replica_of cfg bnd (stores : store array) =
  if cfg.shards < 1 then invalid_arg "Server.start: shards must be positive";
  if Array.length stores <> cfg.shards then
    invalid_arg
      (Printf.sprintf "Server.start: %d stores for %d shards"
         (Array.length stores) cfg.shards);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen Unix.SO_REUSEADDR true;
     Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen 128;
     Unix.set_nonblock listen
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "cannot bind %s:%d (%s)" cfg.host cfg.port
          (Printexc.to_string e)));
  let t = create ?replica_of unix_io ~listen cfg bnd stores in
  t.t_port <- (match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port);
  t.domains <-
    List.init cfg.shards (fun i -> Domain.spawn (fun () -> while iterate t i do () done));
  t
