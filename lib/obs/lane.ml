(* Flat per-phase accumulators with an open current interval. Plain int
   fields: the owner domain is the only writer, and OCaml immediates
   cannot tear, so cross-domain snapshot reads are merely slightly stale
   (bounded by one transition), which is fine for live gauges. The stall
   report snapshots after the pool quiesces, where joins give exact
   visibility. *)

type t = {
  l_ring : Ring.t;
  acc : int array; (* Phase.count accumulated microseconds *)
  mutable cur : int;
  mutable since_us : int;
  start_us : int;
}

let create ?ring_cap ~id ~label ~now_us () =
  {
    l_ring = Ring.create ?cap:ring_cap ~id ~label ();
    acc = Array.make Phase.count 0;
    cur = Phase.index Phase.Queue_wait;
    since_us = now_us;
    start_us = now_us;
  }

let ring t = t.l_ring
let current t = t.cur

let enter_index t p ~now_us =
  if p <> t.cur then begin
    t.acc.(t.cur) <- t.acc.(t.cur) + (now_us - t.since_us);
    t.cur <- p;
    t.since_us <- now_us;
    Ring.record t.l_ring ~track:0 ~code:p ~arg:0 ~ts:now_us
  end

let enter t phase ~now_us = enter_index t (Phase.index phase) ~now_us

type breakdown = {
  b_id : int;
  b_label : string;
  b_wall_us : int;
  b_phase_us : int array;
}

let snapshot t ~now_us =
  let phases = Array.copy t.acc in
  let cur = t.cur and since = t.since_us in
  if now_us > since then phases.(cur) <- phases.(cur) + (now_us - since);
  {
    b_id = Ring.id t.l_ring;
    b_label = Ring.label t.l_ring;
    b_wall_us = max 1 (now_us - t.start_us);
    b_phase_us = phases;
  }

let coverage b =
  float_of_int (Array.fold_left ( + ) 0 b.b_phase_us)
  /. float_of_int b.b_wall_us

let dominant_stall b =
  let best = ref (Phase.index Phase.Pump_wait) in
  for p = 1 to Phase.count - 1 do
    if b.b_phase_us.(p) > b.b_phase_us.(!best) then best := p
  done;
  Phase.of_index !best
