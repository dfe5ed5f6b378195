(* See the .mli. One thread per replica connection; shared state (the
   connection list and each connection's cursor/ack marks) is guarded by
   one hub mutex — updates are a few machine words, contention is
   per-delta, and the store's own per-op cost dwarfs it.

   The wire discipline per thread: send frames while the log has entries
   beyond the cursor and the in-flight window has room, otherwise sleep
   in a select on the socket (acks) and the thread's own wake pipe (new
   commits). Sealing happens at render time, so the log itself stays
   plaintext (it never leaves the process; the wire never sees a
   secret-colored payload unsealed).

   Wakeups are events, not timed polls:
   - a log append writes the wake pipe of every ship thread that is
     asleep ([asleep] is raised before the thread re-reads the head, so
     an append either is seen by that read or finds the flag up);
   - an ack, and a connection's death, broadcast [ack_cv] to the shards
     blocked in [wait_synced].
   OCaml's [Condition] has no timed wait, so the fence timeout rides on
   the ship threads: their select is bounded by [tick_s], and a thread
   that has not broadcast [ack_cv] for [tick_s] does so when it wakes (a
   stalled socket write, every retry), so a waiter re-checks its deadline
   at least that often without being woken by every commit. *)

module Metrics = Privagic_obs.Metrics
module Ring = Privagic_obs.Ring
module Wakeup = Privagic_runtime.Wakeup

type conn = {
  fd : Unix.file_descr;
  sync : bool;
  acks : Delta.ack_reader;
  inflight : (int * float) Queue.t;  (* seq, sent_at (hub mutex) *)
  wake : Wakeup.t;                   (* this thread's own *)
  asleep : bool Atomic.t;            (* in select, wants a commit wakeup *)
  mutable cursor : int;              (* next seq to send *)
  mutable acked : int;
  mutable alive : bool;
}

type t = {
  log : Log.t;
  window : int;
  keys : (string, Seal.key) Hashtbl.t;  (* per-color, derived lazily *)
  cluster : string;
  mu : Mutex.t;
  ack_cv : Condition.t;  (* an ack arrived, a link died, or a tick *)
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable draining : bool;
  mutable drain_deadline : float;
  (* metrics (hub mutex) *)
  h_lag : Metrics.histogram;
  mutable m_last_lag_us : float;
  mutable m_shipped : int;
  mutable m_sealed : int;
  mutable m_seal_cycles : float;
}

(* Upper bound on a ship thread's sleep, and so on how late a fence
   waiter notices its deadline. Commits and acks wake the thread sooner. *)
let tick_s = 0.1

let create ?(window = 1024) ?(cluster = "privagic") ~log () =
  if window < 1 then invalid_arg "Shipper.create: window must be positive";
  {
    log;
    window;
    keys = Hashtbl.create 4;
    cluster;
    mu = Mutex.create ();
    ack_cv = Condition.create ();
    conns = [];
    threads = [];
    draining = false;
    drain_deadline = infinity;
    h_lag = Metrics.histogram "replication lag (us)";
    m_last_lag_us = 0.0;
    m_shipped = 0;
    m_sealed = 0;
    m_seal_cycles = 0.0;
  }

let locked t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let tick t = locked t (fun () -> Condition.broadcast t.ack_cv)

let key_for t color =
  (* hub mutex held: the table is tiny and shared across threads *)
  match Hashtbl.find_opt t.keys color with
  | Some k -> k
  | None ->
    let k = Seal.derive ~cluster:t.cluster color in
    Hashtbl.replace t.keys color k;
    k

(* Wire-capture tap for the robust-safety monitor: every byte the shipper
   puts on a replication link also goes here. Process-wide — the monitor
   captures whatever wire traffic the process produces. *)
let wire_tap : (string -> unit) option ref = ref None

let set_wire_tap f = wire_tap := f

(* Full write on a non-blocking socket; false when the peer is gone or
   stalled past 30 s (a wedged replica must not wedge the primary).
   Every stalled retry ticks the fence waiters. *)
let write_all t fd s =
  (match !wire_tap with None -> () | Some f -> f s);
  let b = Bytes.unsafe_of_string s in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go off =
    if off >= Bytes.length b then true
    else
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        if Unix.gettimeofday () > deadline then false
        else begin
          (try ignore (Unix.select [] [ fd ] [] 0.25)
           with Unix.Unix_error _ -> ());
          tick t;
          go off
        end
      | exception Unix.Unix_error _ -> false
  in
  go 0

let note_acked t c seq =
  locked t (fun () ->
      if seq > c.acked then c.acked <- seq;
      let now = Unix.gettimeofday () in
      let continue = ref true in
      while !continue do
        match Queue.peek_opt c.inflight with
        | Some (s, sent_at) when s <= seq ->
          ignore (Queue.pop c.inflight);
          let lag = (now -. sent_at) *. 1e6 in
          Metrics.observe t.h_lag lag;
          t.m_last_lag_us <- lag
        | _ -> continue := false
      done;
      Condition.broadcast t.ack_cv)

(* Read whatever acks arrived; false on EOF/error. *)
let pump_acks t c buf =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> false
  | n ->
    List.for_all
      (fun r ->
        match r with Ok seq -> note_acked t c seq; true | Error _ -> false)
      (Delta.feed_acks c.acks buf n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error _ -> false

let ship_thread t c ring =
  let buf = Bytes.create 4096 in
  (* traced: each write of a run of frames is a span on this thread's own
     ring, so recording takes no lock *)
  let span =
    match ring with
    | None -> fun f -> f ()
    | Some r -> Ring.span r ~name:(Ring.intern r "repl_ship")
  in
  let sealer ~color ~nonce payload =
    locked t (fun () ->
        let k = key_for t color in
        t.m_sealed <- t.m_sealed + 1;
        t.m_seal_cycles <-
          t.m_seal_cycles +. Seal.cost_cycles (String.length payload);
        Seal.seal ~key:k ~nonce payload)
  in
  (* called under the log mutex on every append: one pipe write per
     sleep, none while the thread is awake *)
  let unsubscribe =
    Log.subscribe t.log (fun () ->
        if Atomic.get c.asleep && Atomic.compare_and_set c.asleep true false
        then Wakeup.wake c.wake)
  in
  let last_tick = ref (Unix.gettimeofday ()) in
  let ok = ref (write_all t c.fd (Delta.render_ok c.cursor)) in
  while !ok && c.alive do
    let head = Log.head t.log in
    let in_flight = locked t (fun () -> c.cursor - 1 - c.acked) in
    if c.cursor <= head && in_flight < t.window then begin
      (* a run of frames in one write, bounded by the window *)
      let stop = min head (c.cursor + (t.window - in_flight) - 1) in
      let frames = Buffer.create 1024 in
      let sent = ref [] in
      let cur = ref c.cursor in
      while !cur <= stop do
        (match Log.get t.log !cur with
        | Some d ->
          Buffer.add_string frames (Delta.render ~sealer:(Some sealer) d);
          sent := d.Delta.seq :: !sent
        | None -> ());
        incr cur
      done;
      let now = Unix.gettimeofday () in
      locked t (fun () ->
          List.iter
            (fun s -> Queue.push (s, now) c.inflight)
            (List.rev !sent);
          c.cursor <- stop + 1;
          t.m_shipped <- t.m_shipped + List.length !sent);
      span (fun () ->
          ok := write_all t c.fd (Buffer.contents frames));
      if !ok then ok := pump_acks t c buf
    end
    else begin
      (* nothing to send (or window full): sleep until an ack, a commit,
         a drain, or the tick. The flag goes up before the head is read
         again, so a commit in between is never missed. *)
      Atomic.set c.asleep true;
      if c.cursor > Log.head t.log || in_flight >= t.window then begin
        match Unix.select [ c.fd; Wakeup.fd c.wake ] [] [] tick_s with
        | rd, _, _ ->
          if List.mem (Wakeup.fd c.wake) rd then Wakeup.drain c.wake;
          if List.mem c.fd rd then ok := pump_acks t c buf
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> ok := false
      end;
      Atomic.set c.asleep false;
      let now = Unix.gettimeofday () in
      if now -. !last_tick >= tick_s then begin
        last_tick := now;
        tick t
      end;
      (* drain: once the tail is flushed, linger only for pending acks *)
      if
        t.draining
        && c.cursor > Log.head t.log
        && (c.acked >= Log.head t.log
           || Unix.gettimeofday () > t.drain_deadline)
      then ok := false
    end
  done;
  (* unsubscribe first: once it returns no append can write the pipe *)
  unsubscribe ();
  locked t (fun () ->
      c.alive <- false;
      Condition.broadcast t.ack_cv;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Wakeup.close c.wake)

let register t ?ring fd ~sync ~from_seq =
  let refuse = locked t (fun () -> t.draining) in
  if refuse then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    let c =
      {
        fd;
        sync;
        acks = Delta.ack_reader ();
        inflight = Queue.create ();
        wake = Wakeup.create ();
        asleep = Atomic.make false;
        cursor = max 1 from_seq;
        acked = max 0 (from_seq - 1);
        alive = true;
      }
    in
    let th = Thread.create (fun () -> ship_thread t c ring) () in
    locked t (fun () ->
        t.conns <- c :: t.conns;
        t.threads <- th :: t.threads)
  end

let connected t =
  locked t (fun () -> List.length (List.filter (fun c -> c.alive) t.conns))

let sync_connected t =
  locked t (fun () ->
      List.length (List.filter (fun c -> c.alive && c.sync) t.conns))

let wait_synced t ~seq ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  locked t (fun () ->
      let pending () =
        List.exists (fun c -> c.alive && c.sync && c.acked < seq) t.conns
      in
      let rec go () =
        if not (pending ()) then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Condition.wait t.ack_cv t.mu;
          go ()
        end
      in
      go ())

let last_lag_us t = locked t (fun () -> t.m_last_lag_us)
let lag_pctiles t = locked t (fun () -> Metrics.pctiles t.h_lag)
let shipped t = locked t (fun () -> t.m_shipped)
let sealed_count t = locked t (fun () -> t.m_sealed)
let seal_cycles t = locked t (fun () -> t.m_seal_cycles)

(* Everything the shipper knows, as live gauges: the closures take the
   hub mutex at exposition time, never on the delta path. *)
let register_obs t (reg : Privagic_obs.Registry.t) =
  let g = Privagic_obs.Registry.gauge reg in
  g ~help:"live replica connections" "privagic_repl_connected" (fun () ->
      float_of_int (connected t));
  g ~help:"live synchronous replica connections" "privagic_repl_sync_connected"
    (fun () -> float_of_int (sync_connected t));
  g ~help:"last observed replication lag (microseconds)"
    "privagic_repl_lag_us" (fun () -> last_lag_us t);
  g ~help:"delta frames shipped" "privagic_repl_shipped_total" (fun () ->
      float_of_int (shipped t));
  g ~help:"secret-colored payloads sealed for the wire"
    "privagic_repl_sealed_total" (fun () -> float_of_int (sealed_count t));
  g ~help:"cycles spent sealing payloads" "privagic_repl_seal_cycles_total"
    (fun () -> seal_cycles t);
  Privagic_obs.Registry.summary reg
    ~help:"replication lag distribution (microseconds)"
    "privagic_repl_lag_summary_us" (fun () -> lag_pctiles t)

let drain t ~timeout_s =
  let already =
    locked t (fun () ->
        let a = t.draining in
        if not a then begin
          t.draining <- true;
          t.drain_deadline <- Unix.gettimeofday () +. timeout_s;
          (* wake every sleeping ship thread to flush and linger *)
          List.iter (fun c -> if c.alive then Wakeup.wake c.wake) t.conns
        end;
        a)
  in
  if not already then begin
    let threads = locked t (fun () -> t.threads) in
    List.iter Thread.join threads
  end
