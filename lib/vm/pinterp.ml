(* Partitioned interpreter: executes a Plan over the SGX simulator. It is
   the virtual-time scheduler of the §7.3 runtime protocol (Rtproto): per
   application thread, one worker per partition color; each chunk runs on
   a fiber of the deterministic scheduler, with its own virtual clock.

   What the scheduler adds to the protocol:
   - a *direct call* (common color, §7.3.2) is an inline execution in the
     same worker — no crossing cost, like the paper's direct chunk call;
   - a *spawn message* starts a fiber on the target worker at
     [sender clock + crossing cost];
   - F arguments needed by spawned chunks and returned F values travel in
     cont messages, each costing one crossing (the paper's trampolines);
   - synchronization barriers (§7.3.3) are charged one crossing when the
     instance spans several partitions.

   The crossing cost is a parameter: the lock-free queue of the Privagic
   runtime by default, or the lock-based switchless call of the Intel SDK
   for the Intel-sdk baselines of Figs. 9-10. *)

open Privagic_pir
open Privagic_partition
module Sgx = Privagic_sgx
module Sched = Privagic_runtime.Sched
module Vclock = Privagic_runtime.Vclock
module Ring = Privagic_obs.Ring
module Ev = Privagic_obs.Ev

exception Error = Rtproto.Error

(* A cont message: the return value of activation [seq]. *)
type mail = { sent_at : float; flow : int; seq : int; value : Rvalue.t }

type worker = {
  w_thread : int;
  w_color : Color.t;
  mutable w_track : int;          (* ring track of this worker *)
  mutable w_mail : mail list;
}

(* The completion state of an activation's spawned chunks.

   Host order vs virtual order: the protocol's host order runs spawned
   enclave fibers to completion before an untrusted spawner's body, while
   virtual clocks still overlap — the spawner does not advance its clock
   while host-waiting; only the final response time takes the max of all
   participants, which is when the paper's runtime would have delivered
   it (DESIGN.md §8.2). *)
type state = {
  mutable pending : int;              (* spawned fibers still running *)
  mutable done_max : float;           (* latest completion among spawned *)
  mutable done_flow : int;            (* trace flow of that completion *)
  mutable colors_done : Color.t list; (* spawned chunks completed *)
}

type activation = state Rtproto.act

(* [act] and [calls] form the frame of the chunk the fiber is running:
   [calls] counts this participant's executions of each call site of
   [act], for the sequence agreement. *)
type fiber_ctx = {
  vm : t;
  worker : worker;
  mutable act : activation;
  mutable calls : Dispatch.counts;
  clock : Vclock.t;
}

(* An application thread: its clock (requests on one thread serialize)
   and its workers, one per color, created on first use. *)
and thread = {
  th_clock : Vclock.t;
  mutable th_workers : worker list;
}

and t = {
  plan : Plan.t;
  exec : Exec.t;
  disp : activation Dispatch.t;                (* resolved plan *)
  sched : Sched.t;
  mutable threads : thread array;              (* by thread id *)
  crossing : Sgx.Machine.t -> float;           (* cost of one boundary msg *)
  mutable current : fiber_ctx option;
  mutable next_thread : int;
  mutable traps : string list;
  mutable guard : bool;  (* §8 extension: valid-spawn-sequence guard *)
  mutable ring : Ring.t option;  (* the trace (off by default) *)
  mutable next_flow : int;       (* flow ids of traced messages *)
}

let thread t id =
  let n = Array.length t.threads in
  if id >= n then
    t.threads <-
      Array.init (Int.max (id + 1) (2 * n)) (fun k ->
          if k < n then t.threads.(k)
          else { th_clock = Vclock.make 0.0; th_workers = [] });
  t.threads.(id)

let thread_clock t id = (thread t id).th_clock

let rec find_worker color = function
  | w :: rest -> if Color.equal w.w_color color then Some w else find_worker color rest
  | [] -> None

let worker_track r id color =
  Ring.track r (Printf.sprintf "t%d/%s" id (Color.to_string color))

let worker t id color =
  let th = thread t id in
  match find_worker color th.th_workers with
  | Some w -> w
  | None ->
    let w_track = match t.ring with Some r -> worker_track r id color | None -> 0 in
    let w = { w_thread = id; w_color = color; w_track; w_mail = [] } in
    th.th_workers <- w :: th.th_workers;
    w

let has_worker t ~thread:id color =
  id >= 0 && id < Array.length t.threads
  && find_worker color t.threads.(id).th_workers <> None

let restore t (ctx : fiber_ctx) =
  t.current <- Some ctx;
  t.exec.Exec.clock <- ctx.clock;
  t.exec.Exec.cpu <- Dispatch.cpu_of_color ctx.worker.w_color;
  (* keep the machine's trace events on the right worker track *)
  match t.exec.Exec.machine.Sgx.Machine.tap with
  | Some tp -> tp.Sgx.Machine.track <- ctx.worker.w_track
  | None -> ()

(* Trace events: a no-op without a ring. Callers pass a constant [kind]
   (no allocation) and a cheap int [arg]. *)
let[@inline] note t ~track kind ~arg at =
  match t.ring with
  | None -> ()
  | Some r ->
    Ring.record r ~track ~code:(Ev.code kind) ~arg ~ts:(Ring.of_cycles at)

(* A flow id for a traced send; -1 (no flow) without a ring. *)
let[@inline] send_flow t ~track kind at =
  match t.ring with
  | None -> -1
  | Some _ ->
    let f = t.next_flow in
    t.next_flow <- f + 1;
    note t ~track kind ~arg:f at;
    f

let fiber_name thread c act =
  Printf.sprintf "t%d/%s:%s" thread (Color.to_string c) (Rtproto.act_name act)

let new_state () =
  { pending = 0; done_max = 0.0; done_flow = -1; colors_done = [] }

let take_traps t =
  let msgs = String.concat "; " t.traps in
  t.traps <- [];
  msgs

(* ------------------------------------------------------------------ *)
(* the scheduler operations of the protocol *)

let cross (ctx : fiber_ctx) n =
  let t = ctx.vm in
  for _ = 1 to n do
    Vclock.add ctx.clock (t.crossing t.exec.Exec.machine)
  done

let send_cont (ctx : fiber_ctx) ~thread color ~seq value =
  let t = ctx.vm in
  let target = worker t thread color in
  cross ctx 1;
  let flow =
    send_flow t ~track:ctx.worker.w_track (Ev.Send Ev.Retval)
      (Vclock.get ctx.clock)
  in
  target.w_mail <-
    target.w_mail @ [ { sent_at = Vclock.get ctx.clock; flow; seq; value } ]

let wait_cont (ctx : fiber_ctx) ~seq : Rvalue.t =
  let w = ctx.worker in
  let matches m = m.seq = seq in
  Sched.block
    (fun () -> List.exists matches w.w_mail)
    (fun () ->
      match List.find_opt matches w.w_mail with
      | Some m -> m.sent_at
      | None -> Vclock.get ctx.clock);
  restore ctx.vm ctx;
  let msg =
    try List.find matches w.w_mail
    with Not_found -> raise (Error "wait_cont: message vanished")
  in
  w.w_mail <- List.filter (fun m -> not (m == msg)) w.w_mail;
  Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) msg.sent_at);
  if msg.flow >= 0 then
    note ctx.vm ~track:w.w_track (Ev.Recv Ev.Retval) ~arg:msg.flow
      (Vclock.get ctx.clock);
  msg.value

let run (ctx : fiber_ctx) act (ch : Dispatch.chunk) args =
  let t = ctx.vm in
  let saved = ctx.act and saved_calls = ctx.calls in
  ctx.act <- act;
  ctx.calls <- Dispatch.counts ();
  note t ~track:ctx.worker.w_track Ev.Chunk_begin ~arg:ch.Dispatch.ch_name
    (Vclock.get ctx.clock);
  let r = Dispatch.run_chunk t.exec ch args in
  note t ~track:ctx.worker.w_track Ev.Chunk_end ~arg:ch.Dispatch.ch_name
    (Vclock.get ctx.clock);
  ctx.act <- saved;
  ctx.calls <- saved_calls;
  r

(* The waiter is data-dependent on the spawned stage (the paper's
   cont/wait): its clock advances to the stage's completion. *)
let await_done (ctx : fiber_ctx) st =
  let waited = Vclock.get ctx.clock < st.done_max in
  Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) st.done_max);
  if waited && st.done_flow >= 0 then
    note ctx.vm ~track:ctx.worker.w_track (Ev.Recv Ev.Done) ~arg:st.done_flow
      (Vclock.get ctx.clock)

(* Host-side wait for every spawned fiber of [act] to finish. An enclave
   waiter takes the stage's completion time; the untrusted interface
   overlaps instead (Fig. 7) — its response time takes the max at the
   end of the request. *)
let wait_spawned (ctx : fiber_ctx) (act : activation) =
  let st = act.Rtproto.act_st in
  if st.pending > 0 then begin
    Sched.block (fun () -> st.pending = 0) (fun () -> Vclock.get ctx.clock);
    restore ctx.vm ctx;
    if Color.is_enclave ctx.worker.w_color then await_done ctx st
  end

(* A fiber also inherits the completion time of the sibling stage before
   it: the cont/wait chain between the enclaves of one activation. *)
let wait_earlier (ctx : fiber_ctx) (act : activation) earlier =
  let st = act.Rtproto.act_st in
  Sched.block
    (fun () ->
      List.for_all (fun d -> List.exists (Color.equal d) st.colors_done) earlier)
    (fun () -> Float.max (Vclock.get ctx.clock) st.done_max);
  restore ctx.vm ctx;
  await_done ctx st

let finish (ctx : fiber_ctx) (act : activation) ~ok =
  let t = ctx.vm and st = act.Rtproto.act_st in
  if ok then begin
    let tc = thread_clock t ctx.worker.w_thread in
    Vclock.set tc (Float.max (Vclock.get tc) (Vclock.get ctx.clock))
  end;
  (* completion signal back to the spawner (one crossing) *)
  cross ctx 1;
  st.pending <- st.pending - 1;
  let now = Vclock.get ctx.clock in
  if now >= st.done_max && Option.is_some t.ring then
    st.done_flow <- send_flow t ~track:ctx.worker.w_track (Ev.Send Ev.Done) now;
  st.done_max <- Float.max st.done_max now;
  st.colors_done <- ctx.worker.w_color :: st.colors_done

(* Start a fiber executing chunk [c] of [act] on worker (thread, c) at
   virtual time [at]; it runs the receiving side of the protocol. The §8
   guard refuses a forged spawn here, at send, so that [inject_spawn]
   reports it synchronously. *)
let rec spawn_fiber t ?(forged = false) ~thread (act : activation) c args
    ~at ~reply_to =
  let w = worker t thread c in
  if forged && t.guard then
    Option.iter (fun m -> raise (Error m)) (Rtproto.spawn_guard t.plan act c);
  (* formatted only when a trace, a trap or a deadlock report reads it *)
  let name = lazy (fiber_name thread c act) in
  act.Rtproto.act_st.pending <- act.Rtproto.act_st.pending + 1;
  (* spawn message: sender is whatever worker is currently running (the
     spawner), receiver is the fresh fiber on [w] *)
  let spawn_flow =
    let from_track =
      match t.current with Some ctx -> ctx.worker.w_track | None -> w.w_track
    in
    send_flow t ~track:from_track (Ev.Send Ev.Spawn) at
  in
  ignore
    (Sched.spawn t.sched ~name ~track:w.w_track ~at (fun clock ->
         let ctx = { vm = t; worker = w; act; calls = Dispatch.counts (); clock } in
         restore t ctx;
         if spawn_flow >= 0 then
           note t ~track:w.w_track (Ev.Recv Ev.Spawn) ~arg:spawn_flow
             (Vclock.get clock);
         Rtproto.receive sched ctx act ~reply_to args))

and sched : (fiber_ctx, state) Rtproto.sched =
  {
    Rtproto.color = (fun ctx -> ctx.worker.w_color);
    thread = (fun ctx -> ctx.worker.w_thread);
    act = (fun ctx -> ctx.act);
    calls = (fun ctx -> ctx.calls);
    exec = (fun ctx -> ctx.vm.exec);
    disp = (fun ctx -> ctx.vm.disp);
    plan = (fun ctx -> ctx.vm.plan);
    state = new_state;
    run;
    send_spawn =
      (fun ctx ~thread act d ~reply_to args ->
        spawn_fiber ctx.vm ~thread act d args ~at:(Vclock.get ctx.clock)
          ~reply_to);
    wait_spawned;
    wait_earlier;
    send_cont;
    wait_cont;
    barrier =
      (fun ctx _ ->
        (* §7.3.3: one cont/wait round *)
        Exec.charge ctx.vm.exec (ctx.vm.crossing ctx.vm.exec.Exec.machine);
        note ctx.vm ~track:ctx.worker.w_track Ev.Barrier ~arg:0
          (Vclock.get ctx.clock));
    cross;
    new_thread =
      (fun ctx ->
        let t = ctx.vm in
        Exec.charge t.exec (Sgx.Machine.thread_spawn_cost t.exec.Exec.machine);
        let id = t.next_thread in
        t.next_thread <- id + 1;
        id);
    finish;
    trap =
      (fun ctx act -> function
        | Exec.Trap msg ->
          let t = ctx.vm and w = ctx.worker in
          t.traps <- (fiber_name w.w_thread w.w_color act ^ ": " ^ msg) :: t.traps
        | e -> raise e);
  }

let create ?config ?cost ?(crossing = Sgx.Machine.queue_msg_cost) ?engine
    (plan : Plan.t) : t =
  let exec, disp = Rtproto.setup ?config ?cost ?engine ~shared:false plan in
  let t =
    { plan; exec; disp; sched = Sched.create (); threads = [||]; crossing;
      current = None; next_thread = 1; traps = []; guard = true; ring = None;
      next_flow = 0 }
  in
  exec.Exec.hooks <-
    Rtproto.hooks sched (fun () ->
        match t.current with
        | Some c -> c
        | None -> raise (Error "no current fiber"));
  t

(* Trace every layer into [r]: the scheduler records fiber lifecycle
   events, the message layer chunk spans, flows and barriers, and the
   machine transition/fault events at the running worker's clock. *)
let attach_ring t (r : Ring.t) =
  t.ring <- Some r;
  (* workers an earlier (untraced) request created get their tracks now *)
  Array.iteri
    (fun id th ->
      List.iter
        (fun w -> w.w_track <- worker_track r id w.w_color)
        (List.rev th.th_workers))
    t.threads;
  (* a chunk event's arg is its Dispatch name index: the names must
     intern at those indices *)
  Array.iteri
    (fun i n ->
      if Ring.intern r n <> i then
        invalid_arg "Pinterp.attach_ring: ring in use")
    (Dispatch.chunk_names t.disp);
  Sched.set_ring t.sched r;
  Sgx.Machine.set_tap t.exec.Exec.machine
    { Sgx.Machine.ring = r; track = 0;
      now = (fun () -> Ring.of_cycles (Vclock.get t.exec.Exec.clock)) }

(* ------------------------------------------------------------------ *)
(* entry points *)

type entry_result = {
  value : Rvalue.t;
  latency_cycles : float;            (* request latency, virtual cycles *)
  completed_at : float;
}

let call_entry t ?(thread = 0) ?max_steps name (args : Rvalue.t list) :
    entry_result =
  let en, act = Rtproto.entry_call t.disp name (new_state ()) in
  Heap.reset_stacks t.exec.Exec.heap;
  let now = Vclock.get (thread_clock t thread) in
  let argv = Array.of_list args in
  let slot = ref None in
  let uw = worker t thread Color.Unsafe in
  (* interface fiber on the U worker (§7.3.4) *)
  let name_ = lazy (Printf.sprintf "t%d/interface:%s" thread name) in
  ignore
    (* parent = its own track: a request is serialized after earlier
       requests on the same application thread (the thread clock) *)
    (Sched.spawn t.sched ~name:name_ ~track:uw.w_track ~parent:uw.w_track
       ~at:now (fun clock ->
         let ctx = { vm = t; worker = uw; act; calls = Dispatch.counts (); clock } in
         restore t ctx;
         let r = Rtproto.entry sched ctx act en argv in
         (* the response leaves once every participant is done; when an
            enclave finished last, its completion signal gates the
            response — a binding happens-before edge *)
         let st = act.Rtproto.act_st in
         let finish = Float.max (Vclock.get clock) st.done_max in
         if st.done_max > Vclock.get clock && st.done_flow >= 0 then
           note t ~track:uw.w_track (Ev.Recv Ev.Done) ~arg:st.done_flow finish;
         slot := Some (r, finish);
         let tc = thread_clock t thread in
         Vclock.set tc (Float.max (Vclock.get tc) finish)));
  let outcome = Sched.run ?max_steps t.sched in
  (* Once the run ends, no fiber of this request can reach a call site
     again: the blocked ones wait on this request's own messages. An
     exhausted budget (or an exception escaping the run) leaves fibers
     that resume in a later run, so their entries stay. *)
  (match outcome with
  | Sched.Budget_exhausted _ -> ()
  | Sched.Completed | Sched.Blocked_workers _ ->
    Dispatch.release t.disp ~root:act.Rtproto.act_seq);
  if t.traps <> [] then raise (Error (take_traps t));
  match !slot with
  | Some (value, completed_at) ->
    { value; latency_cycles = completed_at -. now; completed_at }
  | None -> (
    match outcome with
    | Sched.Budget_exhausted n ->
      raise
        (Error
           (Printf.sprintf "entry %s: step budget exhausted after %d steps"
              name n))
    | Sched.Completed | Sched.Blocked_workers _ ->
      raise (Error ("entry " ^ name ^ " did not complete")))

let output t = Buffer.contents t.exec.Exec.out
let machine t = t.exec.Exec.machine

(* ------------------------------------------------------------------ *)
(* §8 extension: attack surface.

   [inject_spawn] models an attacker who writes a forged spawn message
   into a worker's queue. With the valid-spawn-sequence guard on (the
   default), the runtime rejects any chunk the plan never spawns into that
   partition; with the guard off, the forged chunk executes — the attack
   the paper leaves open. *)

let inject_spawn t ?(thread = 0) ~(color : Color.t) ~(chunk : string)
    (args : Rvalue.t list) : (unit, string) result =
  match Rtproto.forged_act t.disp t.plan ~chunk ~color (new_state ()) with
  | Result.Error m -> Result.Error m
  | Ok act -> (
    let now = Vclock.get (thread_clock t thread) in
    match
      spawn_fiber t ~forged:true ~thread act color (Array.of_list args)
        ~at:now ~reply_to:[]
    with
    | () ->
      ignore (Sched.run t.sched : Sched.outcome);
      Dispatch.release t.disp ~root:act.Rtproto.act_seq;
      if t.traps = [] then Result.Ok () else Result.Error (take_traps t)
    | exception Error msg -> Result.Error msg)

(* Enable/disable the spawn guard (for the attack demonstrations). *)
let set_spawn_guard t enabled = t.guard <- enabled
