(* Real-parallel execution backend: runs a partition plan on OCaml 5
   domains with the lock-free Michael–Scott queue as the inter-partition
   channel. It is the domains scheduler of the §7.3 runtime protocol
   (Rtproto); Pinterp runs the same protocol in virtual time.

   Topology. Application threads are mapped onto a bounded set of lanes
   (real runtimes bound their thread pools; OCaml additionally caps the
   number of domains). Each (lane, color) pair owns one worker: a domain
   spinning on its own message queue. Spawn messages start missing chunks
   on the worker of their partition, cont messages carry return values,
   entry messages carry whole requests into the untrusted worker (§7.3.4).

   Host-order discipline (DESIGN.md §8.2/§8.7): the protocol, shared with
   the simulator, serializes the chunks of one activation, so declassified
   values written to unsafe memory flow forward exactly as in the
   simulator; here its waits are real waits on atomics. Real parallelism
   happens across application threads (the §7.3 [spawn] instruction) and
   across concurrent entry calls.

   The one rule that keeps this deadlock-free: a worker that has to wait —
   for a return value, for the spawned stage, for a sibling, at a barrier
   — never blocks the domain. It *pumps* its own queue (executing nested
   spawns, stashing conts) until the condition holds. The simulator gets
   the same effect from fiber multiplexing; a parked domain would instead
   deadlock as soon as a nested spawn targeted it.

   Shutdown closes every queue (see msqueue.mli for the drain protocol)
   and joins the domains. *)

open Privagic_pir
open Privagic_partition
open Privagic_vm
module Sgx = Privagic_sgx
module Msq = Privagic_runtime.Msqueue
module Obs = Privagic_obs
module Ev = Privagic_obs.Ev

exception Error = Rtproto.Error

(* An activation's completion and barrier state. The activation is shared
   by all its participants, so this state dies with it. *)
type state = {
  pending : int Atomic.t;          (* spawned chunks still running *)
  done_ : Color.t list Atomic.t;   (* spawned chunks completed *)
  arrived : (int * Color.t * int) list Atomic.t;
      (* barrier arrivals: (instr, color, latest occurrence reached) *)
}

type activation = state Rtproto.act

(* What a worker holds while it runs one participant's chunk of [f_act]:
   this participant's call-site executions (for the sequence agreement)
   and barrier arrivals, counted per instruction. *)
type frame = {
  f_act : activation;
  f_calls : Dispatch.counts;
  f_barriers : Dispatch.counts;
}

type msg =
  | Spawn of {
      sp_act : activation;
      sp_args : Rvalue.t array;
      sp_reply_to : (int * Color.t) list; (* (thread, color) for the retval *)
      sp_forged : bool;                   (* attacker-injected (§8) *)
    }
  | Cont of { c_seq : int; c_value : Rvalue.t }
  | Entry of {
      e_act : activation;
      e_args : Rvalue.t array;
      e_entry : Dispatch.entry; (* the resolved §7.3.4 interface *)
      e_slot : (Rvalue.t, string) result option Atomic.t; (* the response *)
    }

type worker = {
  w_pool : t;
  w_lane : int;
  w_color : Color.t;
  w_queue : msg Msq.t;
  w_exec : Exec.t;                 (* per-domain executor, shared tables *)
  mutable w_mail : (int * Rvalue.t) list; (* conts, own domain only *)
  mutable w_frame : frame option;  (* the chunk running now *)
  mutable w_domain : unit Domain.t option;
  w_obs : Obs.Lane.t option;
      (* phase accounting + the worker's event ring; None = obs off and
         untraced *)
}

and t = {
  plan : Plan.t;
  disp : activation Dispatch.t;
  base : Exec.t;                   (* template: shared heap/tables *)
  config : Sgx.Config.t;
  cost : Sgx.Cost.t option;
  lanes : int;
  workers : (int * string, worker) Hashtbl.t;
  wmu : Mutex.t;                   (* workers table + domain creation *)
  inflight : int Atomic.t;         (* chunks/entries created, not done *)
  next_thread : int Atomic.t;
  mutable guard : bool;            (* §8 valid-spawn-sequence guard *)
  traps : string list Atomic.t;
  trace : bool;                    (* lanes also record messages/barriers *)
  mutable domains : int;
  entries_served : int Atomic.t;   (* completed call_entry requests *)
}

let rec atomic_update a f =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (f cur)) then atomic_update a f

let add_trap t msg = atomic_update t.traps (fun l -> msg :: l)
let take_traps t = List.rev (Atomic.exchange t.traps [])

(* Hybrid idle backoff: spin briefly (a message usually follows within the
   latency of one chunk), then yield the core. *)
let spin_budget = 1000

let idle_wait counter =
  incr counter;
  if !counter < spin_budget then Domain.cpu_relax () else Unix.sleepf 0.0001

(* Obs phase hooks. Transitions only happen at backoff boundaries and
   message/chunk edges, never inside the spin loop, so the obs-on cost is
   a few clock reads per message — see BENCH_obs.json for the measured
   budget. With obs off ([w_obs = None]) each hook is a match on None. *)
let[@inline] obs_enter w p =
  match w.w_obs with
  | None -> ()
  | Some l -> Obs.Lane.enter l p ~now_us:(Obs.now_us ())

let[@inline] obs_current w =
  match w.w_obs with None -> -1 | Some l -> Obs.Lane.current l

let[@inline] obs_enter_index w p =
  match w.w_obs with
  | None -> ()
  | Some l -> Obs.Lane.enter_index l p ~now_us:(Obs.now_us ())

let code_begin = Ev.(code Chunk_begin)
let code_end = Ev.(code Chunk_end)

(* A chunk edge on the worker's own ring, sharing its clock read with
   the phase transition that goes with it (into Run at a begin, back to
   the saved phase at an end). *)
let chunk_edge w code (ch : Dispatch.chunk) phase =
  match w.w_obs with
  | None -> ()
  | Some l ->
    let now = Obs.now_us () in
    Obs.Lane.enter_index l phase ~now_us:now;
    Obs.Ring.record (Obs.Lane.ring l) ~track:0 ~code ~arg:ch.Dispatch.ch_name
      ~ts:now

(* Messages and barriers, traced runs only: each worker records its own
   sends and receives into its own ring, so no record takes a lock.
   Flows carry no id across domains. *)
let trace_note w kind =
  if w.w_pool.trace then
    match w.w_obs with
    | Some l ->
      Obs.Ring.record (Obs.Lane.ring l) ~track:0 ~code:(Ev.code kind) ~arg:0
        ~ts:(Obs.now_us ())
    | None -> ()

let cur_frame w =
  match w.w_frame with Some f -> f | None -> raise (Error "no current activation")

let new_state () =
  { pending = Atomic.make 0; done_ = Atomic.make []; arrived = Atomic.make [] }

(* ------------------------------------------------------------------ *)
(* the worker pool *)

let rec worker t thread color : worker =
  let lane = thread mod t.lanes in
  let key = (lane, Color.to_string color) in
  Mutex.lock t.wmu;
  match Hashtbl.find_opt t.workers key with
  | Some w ->
    Mutex.unlock t.wmu;
    w
  | None ->
    let machine = Sgx.Machine.create ?cost:t.cost t.config in
    let w =
      { w_pool = t; w_lane = lane; w_color = color; w_queue = Msq.create ();
        (* the base executor's hooks are inert; this worker's follow *)
        w_exec = Exec.clone_shared t.base ~machine ~hooks:t.base.Exec.hooks;
        w_mail = []; w_frame = None; w_domain = None;
        w_obs =
          (if t.trace || Obs.enabled () then begin
             (* ring id = worker creation index: unique within the pool,
                which is the unit rings get merged over *)
             let l =
               Obs.Lane.create ~id:t.domains
                 ?ring_cap:(if t.trace then Some (1 lsl 16) else None)
                 ~label:(Printf.sprintf "d%d/%s" lane (Color.to_string color))
                 ~now_us:(Obs.now_us ()) ()
             in
             (* a fresh ring interns the chunk names at their Dispatch
                indices, so a chunk event's arg is its [ch_name] *)
             Array.iter
               (fun n -> ignore (Obs.Ring.intern (Obs.Lane.ring l) n))
               (Dispatch.chunk_names t.disp);
             Some l
           end
           else None) }
    in
    w.w_exec.Exec.cpu <- Dispatch.cpu_of_color color;
    w.w_exec.Exec.hooks <- Rtproto.hooks sched (fun () -> w);
    w.w_exec.Exec.obs_ring <- Option.map Obs.Lane.ring w.w_obs;
    Hashtbl.replace t.workers key w;
    t.domains <- t.domains + 1;
    let d = Domain.spawn (fun () -> worker_loop w) in
    w.w_domain <- Some d;
    Mutex.unlock t.wmu;
    w

and worker_loop w =
  let idle = ref 0 in
  (* [closed]: the close flag was seen before this pop *)
  let rec loop closed =
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      obs_enter w Obs.Phase.Run;
      handle w m;
      obs_enter w Obs.Phase.Queue_wait;
      loop false
    (* drain protocol (msqueue.mli): exit only on a None pop observed
       after the close flag, so no pre-close message is lost *)
    | None when closed -> ()
    | None when Msq.is_closed w.w_queue -> loop true
    | None ->
      (* transitions only at the backoff boundaries: queue-wait on the
         first empty pop, park when the spin budget runs out *)
      if !idle = 0 then obs_enter w Obs.Phase.Queue_wait
      else if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
      idle_wait idle;
      loop false
  in
  loop false

and handle w (m : msg) =
  match m with
  | Cont { c_seq; c_value } -> w.w_mail <- (c_seq, c_value) :: w.w_mail
  | Spawn { sp_act = act; sp_args; sp_reply_to; sp_forged } -> (
    let t = w.w_pool in
    (* §8 extension: the valid-spawn-sequence guard, enforced where the
       runtime actually learns about the message — at dequeue, in the
       target partition, before anything executes *)
    match
      if sp_forged && t.guard then Rtproto.spawn_guard t.plan act w.w_color
      else None
    with
    | Some msg ->
      add_trap t msg;
      finish w act ~ok:false
    | None ->
      trace_note w (Ev.Recv Ev.Spawn);
      Rtproto.receive sched w act ~reply_to:sp_reply_to sp_args)
  | Entry { e_act; e_args; e_entry; e_slot } ->
    Atomic.set e_slot
      (Some
         (match Rtproto.entry sched w e_act e_entry e_args with
         | r -> Ok r
         | exception (Exec.Trap msg | Error msg) -> Result.Error msg));
    Atomic.decr w.w_pool.inflight

(* A wait that keeps the domain useful: pump the worker's own queue until
   [pred] holds. Nested spawns execute here; without this, a spawn
   targeting a waiting worker would deadlock the pool (the simulator gets
   the same effect from fiber multiplexing). *)
and wait_until ?(phase = Obs.Phase.Pump_wait) w pred =
  let saved = obs_current w in
  obs_enter w phase;
  let idle = ref 0 in
  while not (pred ()) do
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      (* back from a possible park; nested chunks re-enter Run themselves *)
      obs_enter w phase;
      handle w m
    | None ->
      if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
      idle_wait idle
  done;
  obs_enter_index w saved

and wait_cont w ~seq : Rvalue.t =
  wait_until w (fun () -> List.mem_assoc seq w.w_mail);
  let v =
    try List.assoc seq w.w_mail
    with Not_found -> raise (Error "wait_cont: message vanished")
  in
  w.w_mail <- List.remove_assoc seq w.w_mail;
  trace_note w (Ev.Recv Ev.Retval);
  v

and send_cont w ~thread color ~seq v =
  let target = worker w.w_pool thread color in
  trace_note w (Ev.Send Ev.Retval);
  Msq.push target.w_queue (Cont { c_seq = seq; c_value = v })

(* The in-flight count covers every created chunk/entry; [call_entry] and
   [inject_spawn] wait for it to drain, which also covers background
   application threads started with the §7.3 [spawn] instruction. *)
and send_spawn t (from : worker option) ~thread (act : activation)
    (d : Color.t) ~reply_to ~forged (args : Rvalue.t array) =
  Atomic.incr t.inflight;
  Atomic.incr act.Rtproto.act_st.pending;
  let target = worker t thread d in
  (match from with Some fw -> trace_note fw (Ev.Send Ev.Spawn) | None -> ());
  Msq.push target.w_queue
    (Spawn { sp_act = act; sp_args = args; sp_reply_to = reply_to; sp_forged = forged })

and finish w (act : activation) ~ok:_ =
  (* completion set first, then the count: a waiter that observes
     pending = 0 (SC atomics) also observes the color in the set *)
  atomic_update act.Rtproto.act_st.done_ (fun l -> w.w_color :: l);
  Atomic.decr act.Rtproto.act_st.pending;
  Atomic.decr w.w_pool.inflight

and run_chunk w (act : activation) (ch : Dispatch.chunk) args : Rvalue.t =
  let saved = w.w_frame and obs_saved = obs_current w in
  w.w_frame <-
    Some
      { f_act = act; f_calls = Dispatch.counts ();
        f_barriers = Dispatch.counts () };
  chunk_edge w code_begin ch (Obs.Phase.index Obs.Phase.Run);
  Fun.protect
    ~finally:(fun () ->
      w.w_frame <- saved;
      chunk_edge w code_end ch obs_saved)
    (fun () -> Dispatch.run_chunk w.w_exec ch args)

(* §7.3.3 synchronization barrier, realized with real shared state: the
   arriving worker records its arrival in the activation and waits
   (pumping) until every predecessor in the activation's host order has
   either completed its chunk or arrived at the same occurrence. Under the
   serialization discipline predecessors have always completed, so the
   wait is immediate — but it is checked against the shared record, so a
   violation of the discipline blocks loudly instead of racing quietly.
   Occurrences are reached in order, so keeping each participant's latest
   one per instruction is enough. *)
and barrier w (instr : int) =
  let fr = cur_frame w in
  let act = fr.f_act in
  let st = act.Rtproto.act_st in
  let occ = Dispatch.next fr.f_barriers instr in
  let c = w.w_color in
  let same i d = i = instr && Color.equal d c in
  atomic_update st.arrived (fun l ->
      (instr, c, occ) :: List.filter (fun (i, d, _) -> not (same i d)) l);
  trace_note w Ev.Barrier;
  let present = Dispatch.presence act.Rtproto.act_rf instr in
  let spawned d = List.exists (Color.equal d) act.Rtproto.act_spawned in
  let preds =
    if spawned c then
      (* spawned chunks serialize in color order *)
      List.filter (fun d -> spawned d && Color.compare d c < 0) present
    else if Color.is_enclave c then [] (* enclave direct runs first *)
    else List.filter spawned present (* untrusted body runs after the stage *)
  in
  if preds <> [] then
    wait_until ~phase:Obs.Phase.Barrier w (fun () ->
        let done_ = Atomic.get st.done_ in
        let arrived = Atomic.get st.arrived in
        List.for_all
          (fun d ->
            List.exists (Color.equal d) done_
            || List.exists
                 (fun (i, e, o) -> i = instr && Color.equal e d && o >= occ)
                 arrived)
          preds)

and sched : (worker, state) Rtproto.sched =
  {
    Rtproto.color = (fun w -> w.w_color);
    thread = (fun w -> w.w_lane);
    act = (fun w -> (cur_frame w).f_act);
    calls = (fun w -> (cur_frame w).f_calls);
    exec = (fun w -> w.w_exec);
    disp = (fun w -> w.w_pool.disp);
    plan = (fun w -> w.w_pool.plan);
    state = new_state;
    run = run_chunk;
    send_spawn =
      (fun w ~thread act d ~reply_to args ->
        send_spawn w.w_pool (Some w) ~thread act d ~reply_to ~forged:false args);
    wait_spawned =
      (fun w act ->
        wait_until w (fun () -> Atomic.get act.Rtproto.act_st.pending = 0));
    wait_earlier =
      (fun w act earlier ->
        let st = act.Rtproto.act_st in
        wait_until w (fun () ->
            let done_ = Atomic.get st.done_ in
            List.for_all (fun d -> List.exists (Color.equal d) done_) earlier));
    send_cont;
    wait_cont;
    barrier;
    cross = (fun _ _ -> ());
    new_thread = (fun w -> Atomic.fetch_and_add w.w_pool.next_thread 1);
    finish;
    trap =
      (fun w act -> function
        | Exec.Trap msg | Error msg ->
          add_trap w.w_pool (Rtproto.chunk_name act w.w_color ^ ": " ^ msg)
        | e -> raise e);
  }

(* ------------------------------------------------------------------ *)

let create ?(config = Sgx.Config.machine_b) ?cost ?(lanes = 2) ?engine
    ?(trace = false) (plan : Plan.t) : t =
  (* everything lazily built and shared becomes read-only before the first
     domain starts; the heap serializes its own structures from here on *)
  let base, disp = Rtproto.setup ~config ?cost ?engine ~shared:true plan in
  { plan; disp; base; config; cost; lanes = max 1 lanes;
    workers = Hashtbl.create 16; wmu = Mutex.create ();
    inflight = Atomic.make 0; next_thread = Atomic.make 1; guard = true;
    traps = Atomic.make []; trace; domains = 0;
    entries_served = Atomic.make 0 }

type entry_result = { value : Rvalue.t; wall_seconds : float }

let call_entry t ?(thread = 0) ?(timeout_s = 60.0) name (args : Rvalue.t list)
    : entry_result =
  let en, act = Rtproto.entry_call t.disp name (new_state ()) in
  Heap.reset_stacks t.base.Exec.heap;
  let slot = Atomic.make None in
  let uw = worker t thread Color.Unsafe in
  let start = Unix.gettimeofday () in
  Atomic.incr t.inflight;
  Msq.push uw.w_queue
    (Entry { e_act = act; e_args = Array.of_list args;
             e_entry = en; e_slot = slot });
  (* wait for the response, then for full quiescence: background threads
     the request spawned (§7.3) finish before it is declared complete,
     matching Sched.run in the simulator. The timeout turns a deadlocked
     worker pool into a failure instead of a hung test. *)
  let deadline = start +. timeout_s in
  let rec await () =
    match Atomic.get slot with
    | Some r when Atomic.get t.inflight = 0 -> r
    | _ ->
      if Unix.gettimeofday () > deadline then
        raise
          (Error
             (Printf.sprintf
                "entry %s: timed out after %.0fs (worker pool stalled)" name
                timeout_s))
      else begin
        Unix.sleepf 0.0001;
        await ()
      end
  in
  let r = await () in
  (* the pool went quiet, so no participant of this request is left *)
  Dispatch.release t.disp ~root:act.Rtproto.act_seq;
  (match take_traps t with
  | [] -> ()
  | msgs -> raise (Error (String.concat "; " msgs)));
  match r with
  | Ok value ->
    Atomic.incr t.entries_served;
    { value; wall_seconds = Unix.gettimeofday () -. start }
  | Result.Error msg -> raise (Error msg)

(* §8 attack surface, matching Pinterp.inject_spawn: write a forged spawn
   message into a partition's queue. The guard rejects it at dequeue. *)
let inject_spawn t ?(thread = 0) ~(color : Color.t) ~(chunk : string)
    (args : Rvalue.t list) : (unit, string) result =
  match Rtproto.forged_act t.disp t.plan ~chunk ~color (new_state ()) with
  | Result.Error m -> Result.Error m
  | Ok act -> (
    send_spawn t None ~thread act color ~reply_to:[] ~forged:true
      (Array.of_list args);
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec drain () =
      if Atomic.get t.inflight = 0 then ()
      else if Unix.gettimeofday () > deadline then
        raise (Error "inject_spawn: timed out")
      else begin
        Unix.sleepf 0.0001;
        drain ()
      end
    in
    drain ();
    Dispatch.release t.disp ~root:act.Rtproto.act_seq;
    match take_traps t with
    | [] -> Result.Ok ()
    | msgs -> Result.Error (String.concat "; " msgs))

let set_spawn_guard t enabled = t.guard <- enabled

(* Quiesce, close every queue, join the domains. Returns [false] when the
   pool failed to quiesce in time — queues are closed anyway, but the
   domains are not joined (they may be stuck in a chunk). *)
let shutdown ?(timeout_s = 10.0) t : bool =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec quiesce () =
    if Atomic.get t.inflight = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.0001;
      quiesce ()
    end
  in
  let quiet = quiesce () in
  Mutex.lock t.wmu;
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.workers [] in
  Hashtbl.reset t.workers;
  t.domains <- 0;
  Mutex.unlock t.wmu;
  List.iter (fun w -> Msq.close w.w_queue) ws;
  if quiet then
    List.iter
      (fun w -> match w.w_domain with Some d -> Domain.join d | None -> ())
      ws;
  quiet

let exec t = t.base

let domain_count t =
  Mutex.lock t.wmu;
  let n = t.domains in
  Mutex.unlock t.wmu;
  n

(* in deterministic (lane, color) order *)
let sorted_workers t =
  Mutex.lock t.wmu;
  let ws =
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.workers [])
  in
  Mutex.unlock t.wmu;
  List.map snd ws

let total_steps t =
  List.fold_left
    (fun acc w -> acc + w.w_exec.Exec.steps)
    t.base.Exec.steps (sorted_workers t)

let output t =
  String.concat ""
    (List.map
       (fun (ex : Exec.t) -> Buffer.contents ex.Exec.out)
       (t.base :: List.map (fun w -> w.w_exec) (sorted_workers t)))

(* ------------------------------------------------------------------ *)
(* observability (lib/obs): per-lane phase accounting, event rings,
   metrics registration. Snapshots are monitoring-grade while the pool
   runs; after [call_entry] returns or [shutdown] joins the domains they
   are exact. *)

let agreement_entries t = Dispatch.pending t.disp

let held_frames t =
  List.length (List.filter (fun w -> w.w_frame <> None) (sorted_workers t))

let obs_lanes t = List.filter_map (fun w -> w.w_obs) (sorted_workers t)

let lane_breakdowns t =
  let now = Obs.now_us () in
  List.map (fun l -> Obs.Lane.snapshot l ~now_us:now) (obs_lanes t)

let total_externs t =
  List.fold_left
    (fun acc w -> acc + w.w_exec.Exec.externs)
    t.base.Exec.externs (sorted_workers t)

let declass_counts t : (string * int) list =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (ex : Exec.t) ->
      Hashtbl.iter
        (fun c r ->
          let n = Option.value (Hashtbl.find_opt acc c) ~default:0 in
          Hashtbl.replace acc c (n + !r))
        ex.Exec.declass)
    (t.base :: List.map (fun w -> w.w_exec) (sorted_workers t));
  List.sort compare (Hashtbl.fold (fun c n l -> (c, n) :: l) acc [])

let register_obs t (reg : Obs.Registry.t) =
  let g = Obs.Registry.gauge reg in
  g ~help:"configured worker lanes" "privagic_pool_lanes" (fun () ->
      float_of_int t.lanes);
  g ~help:"live worker domains" "privagic_pool_domains" (fun () ->
      float_of_int (domain_count t));
  g ~help:"chunks and entries in flight" "privagic_pool_inflight" (fun () ->
      float_of_int (Atomic.get t.inflight));
  g ~help:"completed entry-interface requests"
    "privagic_pool_entries_served_total" (fun () ->
      float_of_int (Atomic.get (t.entries_served)));
  g ~help:"VM steps retired across all workers" "privagic_vm_steps_total"
    (fun () -> float_of_int (total_steps t));
  g ~help:"extern dispatches across all workers" "privagic_vm_externs_total"
    (fun () -> float_of_int (total_externs t));
  Obs.Registry.multi_gauge reg
    ~help:"cache-model LLC misses per lane" "privagic_vm_llc_misses_total"
    (fun () ->
      List.map
        (fun w ->
          let c = Sgx.Machine.counters w.w_exec.Exec.machine in
          ( [ ("lane",
               Printf.sprintf "d%d/%s" w.w_lane (Color.to_string w.w_color)) ],
            float_of_int c.Sgx.Machine.llc_misses ))
        (sorted_workers t));
  Obs.Registry.multi_gauge reg
    ~help:"declassification calls per color (shared extern path)"
    "privagic_declassify_total" (fun () ->
      List.map
        (fun (c, n) -> ([ ("color", c) ], float_of_int n))
        (declass_counts t));
  Obs.Registry.multi_gauge reg
    ~help:"per-lane wall time by phase (microseconds)"
    "privagic_lane_phase_us" (fun () ->
      List.concat_map
        (fun (b : Obs.Lane.breakdown) ->
          List.map
            (fun p ->
              ( [ ("lane", b.Obs.Lane.b_label); ("phase", Obs.Phase.name p) ],
                float_of_int b.Obs.Lane.b_phase_us.(Obs.Phase.index p) ))
            Obs.Phase.all)
        (lane_breakdowns t));
  Obs.Registry.multi_gauge reg
    ~help:"events lost to ring overwrite, per lane"
    "privagic_obs_ring_dropped_total" (fun () ->
      List.map
        (fun l ->
          let r = Obs.Lane.ring l in
          ([ ("lane", Obs.Ring.label r) ], float_of_int (Obs.Ring.dropped r)))
        (obs_lanes t))
