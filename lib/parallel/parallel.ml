(* Real-parallel execution backend: runs a partition plan on OCaml 5
   domains with the lock-free Michael–Scott queue as the inter-partition
   channel — the runtime architecture of §7.3 on actual hardware threads,
   where Pinterp executes the same architecture in virtual time.

   Topology. Application threads are mapped onto a bounded set of lanes
   (real runtimes bound their thread pools; OCaml additionally caps the
   number of domains). Each (lane, color) pair owns one worker: a domain
   spinning on its own message queue. Spawn messages start missing chunks
   on the worker of their partition, cont messages carry return values,
   entry messages carry whole requests into the untrusted worker (§7.3.4).

   Host-order discipline (shared with the simulator, DESIGN.md §8.2/§8.7):
   chunks of one activation are serialized — spawned siblings run in color
   order, an untrusted leader runs its body after the spawned enclave
   stage, an enclave leader before it — so declassified values written to
   unsafe memory flow forward exactly as in the simulator. Real
   parallelism happens across application threads (the §7.3 [spawn]
   instruction) and across concurrent entry calls.

   The one rule that keeps this deadlock-free: a worker that has to wait —
   for a return value, for the spawned stage, for a sibling, at a barrier
   — never blocks the domain. It *pumps* its own queue (executing nested
   spawns, stashing conts) until the condition holds. The simulator gets
   the same effect from fiber multiplexing; a parked domain would instead
   deadlock as soon as a nested spawn targeted it.

   Shutdown closes every queue (see msqueue.mli for the drain protocol)
   and joins the domains. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
open Privagic_vm
module Sgx = Privagic_sgx
module Msq = Privagic_runtime.Msqueue
module Obs = Privagic_obs
module Ev = Privagic_obs.Ev

exception Error of string

(* One executing instance of a function, shared by all its participants:
   the ones at a call site get the same record from the sequence
   agreement (Dispatch.child), and spawn messages carry it to the spawned
   chunks. Its barrier state therefore dies with the activation. *)
type activation = {
  act_seq : int;
  act_root : int;                  (* seq of the request it serves *)
  act_rf : Dispatch.rfunc;         (* the function, resolved for its P *)
  act_spawned : Color.t list;      (* colors started via spawn messages *)
  act_pending : int Atomic.t;      (* spawned chunks still running *)
  act_done : Color.t list Atomic.t; (* spawned chunks completed *)
  act_arrived : (int * Color.t * int) list Atomic.t;
      (* barrier arrivals: (instr, color, latest occurrence reached) *)
}

(* What a worker holds while it runs one participant's chunk of [f_act]:
   this participant's call-site executions (for the sequence agreement)
   and barrier arrivals, counted per instruction. *)
type frame = {
  f_act : activation;
  f_calls : Dispatch.counts;
  f_barriers : Dispatch.counts;
}

type slot = {
  s_mu : Mutex.t;
  mutable s_result : (Rvalue.t, string) result option;
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
      e_slot : slot;
    }

type worker = {
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

type t = {
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
  tr_mu : Mutex.t;
  mutable traps : string list;
  trace : bool;                    (* lanes also record messages/barriers *)
  mutable domains : int;
  entries_served : int Atomic.t;   (* completed call_entry requests *)
}

let dummy_hooks : Exec.hooks =
  {
    Exec.h_call = (fun _ _ _ _ -> Rvalue.zero);
    h_callind = (fun _ _ _ _ -> Rvalue.zero);
    h_spawn = (fun _ _ _ _ -> ());
    h_pre_instr = (fun _ _ -> ());
    h_alloca_zone = (fun _ _ -> Heap.Unsafe);
  }

let add_trap t msg =
  Mutex.lock t.tr_mu;
  t.traps <- msg :: t.traps;
  Mutex.unlock t.tr_mu

let take_traps t =
  Mutex.lock t.tr_mu;
  let msgs = t.traps in
  t.traps <- [];
  Mutex.unlock t.tr_mu;
  List.rev msgs

let fill_slot (slot : slot) r =
  Mutex.protect slot.s_mu (fun () -> slot.s_result <- Some r)

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
let trace_note t w kind =
  if t.trace then
    match w.w_obs with
    | Some l ->
      Obs.Ring.record (Obs.Lane.ring l) ~track:0 ~code:(Ev.code kind) ~arg:0
        ~ts:(Obs.now_us ())
    | None -> ()

let act_name (act : activation) =
  Infer.instance_name act.act_rf.Dispatch.rf_pf.Plan.pf_key

let chunk_exn (act : activation) (c : Color.t) : Dispatch.chunk =
  match Dispatch.chunk act.act_rf c with
  | Some ch -> ch
  | None ->
    raise
      (Error
         (Printf.sprintf "no %s chunk in %s" (Color.to_string c)
            (act_name act)))

let cur_frame (w : worker) =
  match w.w_frame with
  | Some f -> f
  | None -> raise (Error "no current activation")

let cur_act w = (cur_frame w).f_act

(* A fresh activation; [root] defaults to the activation itself (a new
   request). *)
let new_act ?root ~seq rf ~spawned =
  {
    act_seq = seq;
    act_root = Option.value root ~default:seq;
    act_rf = rf;
    act_spawned = spawned;
    act_pending = Atomic.make 0;
    act_done = Atomic.make [];
    act_arrived = Atomic.make [];
  }

let fresh_act t ?root rf ~spawned =
  new_act ?root ~seq:(Dispatch.fresh_seq t.disp) rf ~spawned

let rec atomic_update a f =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (f cur)) then atomic_update a f

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
      {
        w_lane = lane;
        w_color = color;
        w_queue = Msq.create ();
        w_exec = Exec.clone_shared t.base ~machine ~hooks:dummy_hooks;
        w_mail = [];
        w_frame = None;
        w_domain = None;
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
           else None);
      }
    in
    w.w_exec.Exec.cpu <- Dispatch.cpu_of_color color;
    w.w_exec.Exec.hooks <- hooks_for t w;
    (match w.w_obs with
    | Some l -> w.w_exec.Exec.obs_ring <- Some (Obs.Lane.ring l)
    | None -> ());
    Hashtbl.replace t.workers key w;
    t.domains <- t.domains + 1;
    let d = Domain.spawn (fun () -> worker_loop t w) in
    w.w_domain <- Some d;
    Mutex.unlock t.wmu;
    w

and worker_loop t w =
  let idle = ref 0 in
  let stop = ref false in
  while not !stop do
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      obs_enter w Obs.Phase.Run;
      handle t w m;
      obs_enter w Obs.Phase.Queue_wait
    | None ->
      if Msq.is_closed w.w_queue then begin
        (* drain protocol (msqueue.mli): exit only on a None pop observed
           after the close flag, so no pre-close message is lost *)
        match Msq.pop w.w_queue with
        | Some m ->
          idle := 0;
          obs_enter w Obs.Phase.Run;
          handle t w m;
          obs_enter w Obs.Phase.Queue_wait
        | None -> stop := true
      end
      else begin
        (* transitions only at the backoff boundaries: queue-wait on the
           first empty pop, park when the spin budget runs out *)
        if !idle = 0 then obs_enter w Obs.Phase.Queue_wait
        else if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
        idle_wait idle
      end
  done

and handle t w (m : msg) =
  match m with
  | Cont { c_seq; c_value } -> w.w_mail <- (c_seq, c_value) :: w.w_mail
  | Spawn _ -> exec_spawn t w m
  | Entry _ -> exec_entry t w m

(* A wait that keeps the domain useful: pump the worker's own queue until
   [pred] holds. Nested spawns execute here; without this, a spawn
   targeting a waiting worker would deadlock the pool (the simulator gets
   the same effect from fiber multiplexing). *)
and wait_until ?(phase = Obs.Phase.Pump_wait) t w pred =
  let saved = obs_current w in
  obs_enter w phase;
  let idle = ref 0 in
  while not (pred ()) do
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      (* back from a possible park; nested chunks re-enter Run themselves *)
      obs_enter w phase;
      handle t w m
    | None ->
      if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
      idle_wait idle
  done;
  obs_enter_index w saved

and wait_pending t w (act : activation) =
  wait_until t w (fun () -> Atomic.get act.act_pending = 0)

and wait_cont t w ~seq : Rvalue.t =
  wait_until t w (fun () -> List.exists (fun (s, _) -> s = seq) w.w_mail);
  let rec take acc = function
    | [] -> raise (Error "wait_cont: message vanished")
    | (s, v) :: rest when s = seq -> (v, List.rev_append acc rest)
    | m :: rest -> take (m :: acc) rest
  in
  let v, rest = take [] w.w_mail in
  w.w_mail <- rest;
  trace_note t w (Ev.Recv Ev.Retval);
  v

and send_cont t (from : worker) ~thread ~color ~seq v =
  let target = worker t thread color in
  trace_note t from (Ev.Send Ev.Retval);
  Msq.push target.w_queue (Cont { c_seq = seq; c_value = v })

(* The in-flight count covers every created chunk/entry; [call_entry] and
   [inject_spawn] wait for it to drain, which also covers background
   application threads started with the §7.3 [spawn] instruction. *)
and send_spawn t (from : worker option) ~thread (act : activation)
    (d : Color.t) ~reply_to ~forged (args : Rvalue.t array) =
  Atomic.incr t.inflight;
  Atomic.incr act.act_pending;
  let target = worker t thread d in
  (match from with Some fw -> trace_note t fw (Ev.Send Ev.Spawn) | None -> ());
  Msq.push target.w_queue
    (Spawn { sp_act = act; sp_args = args; sp_reply_to = reply_to; sp_forged = forged })

and mark_done (act : activation) (c : Color.t) =
  (* completion set first, then the count: a waiter that observes
     pending = 0 (SC atomics) also observes the color in the set *)
  atomic_update act.act_done (fun l -> c :: l);
  Atomic.decr act.act_pending

and exec_spawn t w (s : msg) =
  match s with
  | Spawn { sp_act = act; sp_args; sp_reply_to; sp_forged } ->
    let chunk_name =
      match Dispatch.chunk act.act_rf w.w_color with
      | Some ch -> ch.Dispatch.ch_func.Func.name
      | None -> "<missing>"
    in
    (* §8 extension: the valid-spawn-sequence guard, enforced where the
       runtime actually learns about the message — at dequeue, in the
       target partition, before anything executes *)
    if
      t.guard && sp_forged
      && not (Plan.spawn_allowed t.plan w.w_color chunk_name)
    then begin
      add_trap t
        (Printf.sprintf "spawn guard: %s rejected in %s" chunk_name
           (Color.to_string w.w_color));
      mark_done act w.w_color;
      Atomic.decr t.inflight
    end
    else begin
      trace_note t w (Ev.Recv Ev.Spawn);
      (* host order: spawned siblings of one activation serialize in color
         order, so declassifications flow forward deterministically *)
      let earlier =
        List.filter (fun d -> Color.compare d w.w_color < 0) act.act_spawned
      in
      if earlier <> [] then
        wait_until t w (fun () ->
            let done_ = Atomic.get act.act_done in
            List.for_all
              (fun d -> List.exists (Color.equal d) done_)
              earlier);
      (match run_chunk w act sp_args with
      | r ->
        List.iter
          (fun (th, color) ->
            send_cont t w ~thread:th ~color ~seq:act.act_seq r)
          sp_reply_to
      | exception Exec.Trap msg -> add_trap t (chunk_name ^ ": " ^ msg)
      | exception Error msg -> add_trap t (chunk_name ^ ": " ^ msg));
      mark_done act w.w_color;
      Atomic.decr t.inflight
    end
  | _ -> ()

and run_chunk w (act : activation) (args : Rvalue.t array) : Rvalue.t =
  let ch = chunk_exn act w.w_color in
  let saved = w.w_frame in
  w.w_frame <-
    Some
      { f_act = act; f_calls = Dispatch.counts ();
        f_barriers = Dispatch.counts () };
  let obs_saved = obs_current w in
  chunk_edge w code_begin ch (Obs.Phase.index Obs.Phase.Run);
  let finish () =
    w.w_frame <- saved;
    chunk_edge w code_end ch obs_saved
  in
  match Dispatch.run_chunk w.w_exec ch args with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* ------------------------------------------------------------------ *)
(* call dispatch (the decisions come from Dispatch, shared with Pinterp) *)

and dispatch_call t w (i : Instr.t) callee (args : Rvalue.t array) : Rvalue.t =
  let act = cur_act w in
  match Dispatch.resolved act.act_rf i.Instr.id with
  | Dispatch.Call site -> dispatch_local_call t w i site args
  | Dispatch.Extern -> extern t w act i callee args
  | Dispatch.Unplanned | Dispatch.Thread _ | Dispatch.Indirect _ ->
    if Pmodule.is_defined t.base.Exec.m callee then
      raise
        (Error
           (Printf.sprintf "call to @%s at instr %d has no plan in %s" callee
              i.Instr.id (act_name act)))
    else extern t w act i callee args

and extern t w act i callee args =
  Dispatch.dispatch_extern t.disp w.w_exec ~color:w.w_color
    ~caller:act.act_rf.Dispatch.rf_pf.Plan.pf_key.Infer.ik_func i callee args

and dispatch_local_call t w (i : Instr.t) (site : Dispatch.rsite)
    (args : Rvalue.t array) : Rvalue.t =
  let c = w.w_color in
  let thread = w.w_lane in
  let fr = cur_frame w in
  let act = fr.f_act in
  let callee = site.Dispatch.rs_callee in
  let { Dispatch.s_leader = leader; s_inter = inter; s_spawned = spawned;
        s_ret_sender = ret_sender } =
    site.Dispatch.rs_layout
  in
  (* every participant of the site gets the same child activation *)
  let child_act =
    Dispatch.child t.disp ~calls:fr.f_calls ~root:act.act_root
      ~seq:act.act_seq ~instr:i.Instr.id ~takers:site.Dispatch.rs_takers
      (fun seq -> new_act ~root:act.act_root ~seq callee ~spawned)
  in
  let seq = child_act.act_seq in
  let needers = site.Dispatch.rs_needers in
  let is_sender = match ret_sender with Some d -> Color.equal c d | None -> false in
  (* the leader starts the missing chunks *)
  if Color.equal c leader && spawned <> [] then begin
    List.iter
      (fun d ->
        let reply_to =
          match inter, ret_sender with
          | [], Some r when Color.equal d r ->
            List.map (fun n -> (thread, n)) needers
          | _ -> []
        in
        send_spawn t (Some w) ~thread child_act d ~reply_to ~forged:false args)
      spawned;
    (* host order: an untrusted leader lets the spawned enclave stage
       complete before its own body, so declassified values are visible *)
    if not (Color.is_enclave c) then wait_pending t w child_act
  end;
  let result =
    if callee.Dispatch.rf_pure then
      (* pure-F callee: replicated, executes inline everywhere *)
      run_chunk w child_act args
    else if List.exists (Color.equal c) callee.Dispatch.rf_participants then begin
      (* direct call (§7.3.2): inline execution in this worker *)
      let r = run_chunk w child_act args in
      (if is_sender && inter <> [] then
         List.iter
           (fun d -> send_cont t w ~thread ~color:d ~seq r)
           needers);
      r
    end
    else if List.exists (Color.equal c) needers then wait_cont t w ~seq
    else Rvalue.zero
  in
  (* an enclave leader waits after its own (direct) work *)
  if Color.equal c leader && Color.is_enclave c then
    wait_pending t w child_act;
  result

(* Indirect call to a defined function (§6.3, §7.3.4): interface-style
   entry in the current worker, which starts the missing chunks itself. *)
and dispatch_indirect t w (i : Instr.t) name (args : Rvalue.t array) :
    Rvalue.t =
  let c = w.w_color in
  let thread = w.w_lane in
  let rf =
    match Dispatch.indirect t.disp name ~color:c with
    | Some rf -> rf
    | None ->
      let f = Pmodule.find_func_exn t.base.Exec.m name in
      raise
        (Error
           ("no partitioned function for "
           ^ Infer.instance_name (Dispatch.indirect_entry_key t.plan f)))
  in
  let cs = rf.Dispatch.rf_pf.Plan.pf_colorset in
  let spawned_cs = List.filter (fun d -> not (Color.equal d c)) cs in
  let parent = cur_act w in
  let act = fresh_act t ~root:parent.act_root rf ~spawned:spawned_cs in
  if rf.Dispatch.rf_pure then run_chunk w act args
  else begin
    let in_cs = List.exists (Color.equal c) cs in
    let i_need =
      (not in_cs)
      &&
      match
        Dispatch.resolved parent.act_rf i.Instr.id,
        Dispatch.chunk parent.act_rf c
      with
      | Dispatch.Indirect readers, Some ch ->
        List.exists (Color.equal ch.Dispatch.ch_color) readers
      | _ -> false
    in
    let first = match cs with d :: _ -> Some d | [] -> None in
    List.iter
      (fun d ->
        let reply_to =
          match first with
          | Some f when i_need && Color.equal d f -> [ (thread, c) ]
          | _ -> []
        in
        send_spawn t (Some w) ~thread act d ~reply_to ~forged:false args)
      spawned_cs;
    if in_cs then run_chunk w act args
    else if i_need then wait_cont t w ~seq:act.act_seq
    else Rvalue.zero
  end

(* §7.3 thread creation: start every chunk of the target instance on the
   workers of a fresh application thread — this is where the backend's
   parallelism is real rather than simulated. *)
and dispatch_spawn t w (i : Instr.t) (args : Rvalue.t array) =
  let act = cur_act w in
  match Dispatch.resolved act.act_rf i.Instr.id with
  | Dispatch.Thread rf ->
    let thread = Atomic.fetch_and_add t.next_thread 1 in
    let cs = rf.Dispatch.rf_participants in
    let child = fresh_act t ~root:act.act_root rf ~spawned:cs in
    List.iter
      (fun d -> send_spawn t (Some w) ~thread child d ~reply_to:[] ~forged:false args)
      cs
  | Dispatch.Unplanned | Dispatch.Extern | Dispatch.Call _
  | Dispatch.Indirect _ ->
    raise (Error "spawn site without plan")

(* §7.3.3 synchronization barrier, realized with real shared state: the
   arriving worker records its arrival in the activation and waits
   (pumping) until every predecessor in the activation's host order has
   either completed its chunk or arrived at the same occurrence. Under the
   serialization discipline predecessors have always completed, so the
   wait is immediate — but it is checked against the shared record, so a
   violation of the discipline blocks loudly instead of racing quietly.
   Occurrences are reached in order, so keeping each participant's latest
   one per instruction is enough. *)
and barrier t w (fr : frame) (instr : int) =
  let act = fr.f_act in
  let occ = Dispatch.next fr.f_barriers instr in
  let c = w.w_color in
  let same i d = i = instr && Color.equal d c in
  atomic_update act.act_arrived (fun l ->
      (instr, c, occ) :: List.filter (fun (i, d, _) -> not (same i d)) l);
  trace_note t w Ev.Barrier;
  let present = Dispatch.presence act.act_rf instr in
  let spawned d = List.exists (Color.equal d) act.act_spawned in
  let preds =
    if spawned w.w_color then
      (* spawned chunks serialize in color order *)
      List.filter
        (fun d -> spawned d && Color.compare d w.w_color < 0)
        present
    else if Color.is_enclave w.w_color then [] (* enclave direct runs first *)
    else List.filter spawned present (* untrusted body runs after the stage *)
  in
  if preds <> [] then
    wait_until ~phase:Obs.Phase.Barrier t w (fun () ->
        let done_ = Atomic.get act.act_done in
        let arrived = Atomic.get act.act_arrived in
        List.for_all
          (fun d ->
            List.exists (Color.equal d) done_
            || List.exists
                 (fun (i, e, o) -> i = instr && Color.equal e d && o >= occ)
                 arrived)
          preds)

and hooks_for t w : Exec.hooks =
  {
    Exec.h_call = (fun _ i callee args -> dispatch_call t w i callee args);
    h_callind =
      (fun ex i fv args ->
        let name = Exec.resolve_func ex fv in
        if Pmodule.is_defined ex.Exec.m name then
          dispatch_indirect t w i name args
        else extern t w (cur_act w) i name args);
    h_spawn = (fun _ i _ args -> dispatch_spawn t w i args);
    h_pre_instr =
      (fun _ i ->
        match w.w_frame with
        | Some fr when Dispatch.barrier fr.f_act.act_rf i.Instr.id ->
          barrier t w fr i.Instr.id
        | _ -> ());
    h_alloca_zone = (fun _ ty -> Dispatch.alloca_zone ty ~current:w.w_color);
  }

(* ------------------------------------------------------------------ *)
(* entry interface (§7.3.4) *)

and exec_entry t w (e : msg) =
  match e with
  | Entry { e_act = act; e_args; e_entry; e_slot } ->
    (match
       (List.iter
          (fun d ->
            let reply_to =
              match e_entry.Dispatch.en_replier with
              | Some r when Color.equal d r -> [ (w.w_lane, Color.Unsafe) ]
              | _ -> []
            in
            send_spawn t (Some w) ~thread:w.w_lane act d ~reply_to
              ~forged:false e_args)
          act.act_spawned;
        (* host order: enclave chunks complete before the U body *)
        wait_pending t w act;
        match e_entry.Dispatch.en_direct with
        | Some _ -> run_chunk w act e_args
        | None -> wait_cont t w ~seq:act.act_seq)
     with
    | r -> fill_slot e_slot (Ok r)
    | exception Exec.Trap msg -> fill_slot e_slot (Result.Error msg)
    | exception Error msg -> fill_slot e_slot (Result.Error msg));
    Atomic.decr t.inflight
  | _ -> ()

(* ------------------------------------------------------------------ *)

let create ?(config = Sgx.Config.machine_b) ?cost ?(lanes = 2) ?engine
    ?(trace = false) (plan : Plan.t) : t =
  let engine =
    match engine with Some e -> e | None -> Exec.default_engine ()
  in
  let m = plan.Plan.pmodule in
  let machine = Sgx.Machine.create ?cost config in
  let heap = Heap.create () in
  let layout =
    Layout.create ~auth_pointers:plan.Plan.auth_pointers m plan.Plan.mode
  in
  let sites = Exec.alloc_sites m in
  let base = Exec.create m heap layout machine dummy_hooks in
  Exec.init_globals base (Dispatch.global_zone plan);
  (* everything lazily built and shared becomes read-only before the first
     domain starts; the heap serializes its own structures from here on *)
  Exec.warm_caches base ~extra:(Dispatch.chunk_funcs plan);
  let image =
    match engine with
    | Exec.Image ->
      let img = Image.build ~plan ~sites base in
      Image.install base img;
      Some img
    | Exec.Walk -> None
  in
  let disp = Dispatch.create ~sites ?image plan in
  Heap.set_concurrent heap true;
  {
    plan;
    disp;
    base;
    config;
    cost;
    lanes = max 1 lanes;
    workers = Hashtbl.create 16;
    wmu = Mutex.create ();
    inflight = Atomic.make 0;
    next_thread = Atomic.make 1;
    guard = true;
    tr_mu = Mutex.create ();
    traps = [];
    trace;
    domains = 0;
    entries_served = Atomic.make 0;
  }

type entry_result = { value : Rvalue.t; wall_seconds : float }

let call_entry t ?(thread = 0) ?(timeout_s = 60.0) name (args : Rvalue.t list)
    : entry_result =
  let en =
    match Dispatch.entry t.disp name with
    | Some e -> e
    | None -> raise (Error ("not an entry point: " ^ name))
  in
  Heap.reset_stacks t.base.Exec.heap;
  let act = fresh_act t en.Dispatch.en_rf ~spawned:en.Dispatch.en_spawned in
  let slot = { s_mu = Mutex.create (); s_result = None } in
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
  let result = ref None in
  let rec await () =
    (if !result = None then begin
       Mutex.lock slot.s_mu;
       result := slot.s_result;
       Mutex.unlock slot.s_mu
     end);
    match !result with
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
  Dispatch.release t.disp ~root:act.act_seq;
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
  match Dispatch.locate_chunk t.plan chunk with
  | None -> Result.Error ("no such chunk: " ^ chunk)
  | Some (_, pf, cc) ->
    if not (Color.equal cc color) then
      Result.Error
        (Printf.sprintf "chunk %s belongs to partition %s" chunk
           (Color.to_string cc))
    else begin
      let act = fresh_act t (Dispatch.shape t.disp pf [ color ]) ~spawned:[] in
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
      Dispatch.release t.disp ~root:act.act_seq;
      match take_traps t with
      | [] -> Result.Ok ()
      | msgs -> Result.Error (String.concat "; " msgs)
    end

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

let total_steps t =
  Mutex.lock t.wmu;
  let n =
    Hashtbl.fold (fun _ w acc -> acc + w.w_exec.Exec.steps) t.workers
      t.base.Exec.steps
  in
  Mutex.unlock t.wmu;
  n

let output t =
  Mutex.lock t.wmu;
  let ws =
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.workers [])
  in
  Mutex.unlock t.wmu;
  String.concat ""
    (Buffer.contents t.base.Exec.out
    :: List.map (fun (_, w) -> Buffer.contents w.w_exec.Exec.out) ws)

(* ------------------------------------------------------------------ *)
(* observability (lib/obs): per-lane phase accounting, event rings,
   metrics registration. Snapshots are monitoring-grade while the pool
   runs; after [call_entry] returns or [shutdown] joins the domains they
   are exact. *)

let sorted_workers t =
  Mutex.lock t.wmu;
  let ws =
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.workers [])
  in
  Mutex.unlock t.wmu;
  List.map snd ws

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
  let fold (ex : Exec.t) =
    Hashtbl.iter
      (fun color r ->
        match Hashtbl.find_opt acc color with
        | Some a -> a := !a + !r
        | None -> Hashtbl.add acc color (ref !r))
      ex.Exec.declass
  in
  fold t.base;
  List.iter (fun w -> fold w.w_exec) (sorted_workers t);
  List.sort compare (Hashtbl.fold (fun c r l -> (c, !r) :: l) acc [])

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
