(* Single-writer event ring over four int arrays. See ring.mli for the
   contract; the key invariant is that [record] performs only unboxed int
   stores, so attaching a ring to a hot loop costs a handful of
   nanoseconds and zero GC pressure. Names (tracks, chunks, requests)
   are interned when they are registered, so an event row is all ints. *)

type clock = Virtual | Wall

type t = {
  cap : int;
  mask : int;
  ts : int array; (* µs since the obs epoch, or encoded virtual cycles *)
  tracks : int array;
  codes : int array;
  args : int array;
  mutable pos : int; (* total events ever written; owner-domain only *)
  mutable last_us : int; (* amortized clock cache for [record_now] *)
  mutable refresh : int; (* [record_now] calls until the next real read *)
  id : int;
  label : string;
  clock : clock;
  mutable track_names : string list; (* registered tracks, newest first *)
  names : (string, int) Hashtbl.t; (* interned names, dense from 0 *)
}

let rec round_pow2 n k = if k >= n then k else round_pow2 n (k * 2)

let create ?(cap = 4096) ?(clock = Wall) ~id ~label () =
  let cap = round_pow2 (max 2 cap) 2 in
  {
    cap;
    mask = cap - 1;
    ts = Array.make cap 0;
    tracks = Array.make cap 0;
    codes = Array.make cap 0;
    args = Array.make cap 0;
    pos = 0;
    last_us = 0;
    refresh = 0;
    id;
    label;
    clock;
    track_names = [];
    names = Hashtbl.create 8;
  }

(* A non-negative float's sign bit is 0, so its other 63 bits fit an int
   exactly: virtual timestamps stay exact in an int column. *)
let[@inline] of_cycles c = Int64.to_int (Int64.bits_of_float c)
let[@inline] to_cycles i =
  Int64.float_of_bits (Int64.logand (Int64.of_int i) Int64.max_int)

let[@inline] record t ~track ~code ~arg ~ts =
  let i = t.pos land t.mask in
  t.ts.(i) <- ts;
  t.tracks.(i) <- track;
  t.codes.(i) <- code;
  t.args.(i) <- arg;
  t.pos <- t.pos + 1;
  (* exact-time events keep the amortized cache fresh and monotone *)
  if ts > t.last_us then t.last_us <- ts

(* One real clock read per [refresh_every] events: gettimeofday allocates
   a boxed float, which at extern-dispatch frequency costs several percent
   of steps/s. Amortizing keeps point events in the timeline (stamped with
   the cached time, never behind the last exact-time event) at negligible
   hot-path cost; the (ring, seq) tiebreak keeps the merge deterministic
   for events sharing a cached stamp. *)
let refresh_every = 32

let[@inline] record_now t ~code ~arg =
  (if t.refresh <= 0 then begin
     t.refresh <- refresh_every;
     let u = Clock.now_us () in
     if u > t.last_us then t.last_us <- u
   end
   else t.refresh <- t.refresh - 1);
  record t ~track:0 ~code ~arg ~ts:t.last_us

(* A request span around [f], on track 0 of a [Wall] ring; [name] is
   an interned name. *)
let span t ~name f =
  let edge kind =
    record t ~track:0 ~code:(Ev.code kind) ~arg:name ~ts:(Clock.now_us ())
  in
  edge Ev.Req_begin;
  let x = f () in
  edge Ev.Req_end;
  x

let capacity t = t.cap
let id t = t.id
let label t = t.label
let clock t = t.clock
let total t = t.pos
let length t = min t.pos t.cap
let dropped t = max 0 (t.pos - t.cap)

let track t name =
  let k = List.length t.track_names in
  t.track_names <-
    (if t.label = "" then name else t.label ^ "/" ^ name) :: t.track_names;
  k

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some k -> k
  | None ->
    let k = Hashtbl.length t.names in
    Hashtbl.add t.names name k;
    k

(* ---------------- readers ---------------- *)

type event = {
  ev_at : float;
  ev_clock : clock;
  ev_ring : int;
  ev_seq : int;
  ev_track : int;
  ev_kind : Ev.t;
  ev_arg : int;
  ev_name : string;
}

(* Rings in id order, each with the first global track it owns: a ring
   that registered no track still owns one (its track 0, named by its
   label). *)
let layout rings =
  let off = ref 0 in
  List.map
    (fun r ->
      let o = !off in
      off := o + max 1 (List.length r.track_names);
      (r, o))
    (List.sort (fun a b -> compare a.id b.id) rings)

let ring_events (r, off) =
  let names = Array.make (Hashtbl.length r.names) "" in
  Hashtbl.iter (fun s k -> names.(k) <- s) r.names;
  let n = length r in
  let first = r.pos - n in
  Array.init n (fun k ->
      let seq = first + k in
      let i = seq land r.mask in
      let kind = Ev.of_code r.codes.(i) in
      let arg = r.args.(i) in
      {
        ev_at =
          (if r.clock = Virtual then to_cycles r.ts.(i)
           else float_of_int r.ts.(i));
        ev_clock = r.clock;
        ev_ring = r.id;
        ev_seq = seq;
        ev_track = off + r.tracks.(i);
        ev_kind = kind;
        ev_arg =
          (match kind with
          | Ev.Fiber_spawn when arg >= 0 -> off + arg
          | _ -> arg);
        ev_name =
          (match kind with
          | Ev.Chunk_begin | Ev.Chunk_end | Ev.Req_begin | Ev.Req_end
            when arg >= 0 && arg < Array.length names ->
            names.(arg)
          | _ -> "");
      })

let events rings = Array.concat (List.map ring_events (layout rings))

let tracks rings =
  Array.concat
    (List.map
       (fun (r, _) ->
         let names =
           if r.track_names = [] then [ r.label ] else r.track_names
         in
         Array.of_list (List.rev_map (fun n -> (n, r.clock)) names))
       (layout rings))

(* Total order: clock domain, timestamp, ring id, per-ring sequence. Two
   events never compare equal across distinct rings (ids differ) or
   within one ring (seqs differ), so the merge output is independent of
   the input list order. *)
let merge rings =
  let key e = (e.ev_clock, e.ev_at, e.ev_ring, e.ev_seq) in
  let arr = events rings in
  Array.sort (fun a b -> compare (key a) (key b)) arr;
  arr
