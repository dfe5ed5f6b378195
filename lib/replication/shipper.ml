(* See the .mli. No IO here: the shard loop that hosts a link owns its
   socket, reads the ack bytes into [feed] and writes what [output]
   hands back. A link is owner-written: only its host calls [fill],
   [feed], [output] and [detach]. Everyone else reads [acked] and
   [alive] (atomics) through [synced], and the counters, which readers
   merge the way the server merges its per-shard counters.

   Sealing happens at render time, so the log itself stays plaintext
   (it never leaves the process; the wire never sees a secret-colored
   payload unsealed). *)

module Metrics = Privagic_obs.Metrics

type link = {
  sync : bool;
  acks : Delta.ack_reader;
  inflight : (int * float) Queue.t;  (* seq, rendered at (µs) *)
  out : Buffer.t;                    (* rendered, not yet handed out *)
  keys : (string, Seal.key) Hashtbl.t;  (* per color, derived lazily *)
  mutable cursor : int;              (* next seq to render *)
  acked : int Atomic.t;
  alive : bool Atomic.t;
  (* owner-written metrics *)
  h_lag : Metrics.histogram;
  mutable last_lag_us : float;
  mutable last_ack_at : float;
  mutable shipped : int;
  mutable sealed : int;
  mutable seal_cycles : float;
}

type t = {
  log : Log.t;
  window : int;
  cluster : string;
  (* every link ever attached, newest first; changes only on attach. A
     dead link stays as the record of its counters. *)
  links : link list Atomic.t;
}

let create ?(window = 1024) ?(cluster = "privagic") ~log () =
  if window < 1 then invalid_arg "Shipper.create: window must be positive";
  { log; window; cluster; links = Atomic.make [] }

(* Wire-capture tap for the robust-safety monitor: every byte rendered
   for a link also goes here, before [output] can hand it to a socket.
   Process-wide — the monitor captures whatever wire traffic the
   process produces. *)
let wire_tap : (string -> unit) option ref = ref None

let set_wire_tap f = wire_tap := f

let emit l s =
  (match !wire_tap with None -> () | Some f -> f s);
  Buffer.add_string l.out s

let attach t ~sync ~from_seq =
  let l =
    {
      sync;
      acks = Delta.ack_reader ();
      inflight = Queue.create ();
      out = Buffer.create 256;
      keys = Hashtbl.create 4;
      cursor = max 1 from_seq;
      acked = Atomic.make (max 0 (from_seq - 1));
      alive = Atomic.make true;
      h_lag = Metrics.histogram "replication lag (us)";
      last_lag_us = 0.0;
      last_ack_at = neg_infinity;
      shipped = 0;
      sealed = 0;
      seal_cycles = 0.0;
    }
  in
  emit l (Delta.render_ok l.cursor);
  let rec push () =
    let cur = Atomic.get t.links in
    if not (Atomic.compare_and_set t.links cur (l :: cur)) then push ()
  in
  push ();
  l

let sealer t l ~color ~nonce payload =
  let key =
    match Hashtbl.find_opt l.keys color with
    | Some k -> k
    | None ->
      let k = Seal.derive ~cluster:t.cluster color in
      Hashtbl.replace l.keys color k;
      k
  in
  l.sealed <- l.sealed + 1;
  l.seal_cycles <- l.seal_cycles +. Seal.cost_cycles (String.length payload);
  Seal.seal ~key ~nonce payload

let fill t l ~now =
  let head = Log.head t.log in
  let room = t.window - Queue.length l.inflight in
  if Atomic.get l.alive && l.cursor <= head && room > 0 then begin
    (* a run of frames in one render, bounded by the window *)
    let stop = min head (l.cursor + room - 1) in
    let frames = Buffer.create 1024 in
    for seq = l.cursor to stop do
      match Log.get t.log seq with
      | Some d ->
        Buffer.add_string frames (Delta.render ~sealer:(Some (sealer t l)) d);
        Queue.push (seq, now) l.inflight;
        l.shipped <- l.shipped + 1
      | None -> ()
    done;
    l.cursor <- stop + 1;
    emit l (Buffer.contents frames)
  end

let output l =
  let s = Buffer.contents l.out in
  Buffer.clear l.out;
  s

let detach l =
  Atomic.set l.alive false;
  Queue.clear l.inflight;
  Buffer.reset l.out

let note_acked l seq ~now =
  if seq > Atomic.get l.acked then Atomic.set l.acked seq;
  let continue = ref true in
  while !continue do
    match Queue.peek_opt l.inflight with
    | Some (s, sent_at) when s <= seq ->
      ignore (Queue.pop l.inflight);
      let lag = now -. sent_at in
      Metrics.observe l.h_lag lag;
      l.last_lag_us <- lag;
      l.last_ack_at <- now
    | _ -> continue := false
  done

let feed l buf n ~now =
  List.iter
    (function
      | Ok seq -> if Atomic.get l.alive then note_acked l seq ~now
      | Error _ -> detach l)
    (Delta.feed_acks l.acks buf n)

let alive l = Atomic.get l.alive
let is_sync l = l.sync
let caught_up t l = Atomic.get l.acked >= Log.head t.log

let synced t ~seq =
  List.for_all
    (fun l -> (not l.sync) || Atomic.get l.acked >= seq || not (Atomic.get l.alive))
    (Atomic.get t.links)

(* ------------------------------------------------------------------ *)
(* merged reads *)

let links t = Atomic.get t.links
let count t p = List.length (List.filter (fun l -> alive l && p l) (links t))
let connected t = count t (fun _ -> true)
let sync_connected t = count t is_sync
let sum t f = List.fold_left (fun acc l -> acc + f l) 0 (links t)
let shipped t = sum t (fun l -> l.shipped)
let sealed_count t = sum t (fun l -> l.sealed)
let seal_cycles t = List.fold_left (fun acc l -> acc +. l.seal_cycles) 0.0 (links t)
let lag_pctiles t = Metrics.pctiles (Metrics.merge (List.map (fun l -> l.h_lag) (links t)))

let last_lag_us t =
  match List.sort (fun a b -> compare b.last_ack_at a.last_ack_at) (links t) with
  | l :: _ -> l.last_lag_us
  | [] -> 0.0

(* Everything the shipper knows, as live gauges: the closures merge the
   links' counters at exposition time, never on the delta path. *)
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
