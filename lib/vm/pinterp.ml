(* Partitioned interpreter: executes a Plan over the SGX simulator with the
   runtime architecture of §7.3 — per application thread, one worker per
   partition color; spawn messages start missing chunks; cont messages carry
   F values (relaxed mode) and return values; everything runs in virtual
   time on the deterministic scheduler.

   Mapping to the paper's runtime:
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
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx
module Sched = Privagic_runtime.Sched
module Vclock = Privagic_runtime.Vclock
module Ring = Privagic_obs.Ring
module Ev = Privagic_obs.Ev

exception Error of string

type payload =
  | Cont of { seq : int; tag : tag; value : Rvalue.t }

and tag = Retval | Token

type mail = { sent_at : float; flow : int; payload : payload }

type worker = {
  w_thread : int;
  w_color : Color.t;
  mutable w_track : int;          (* ring track of this worker *)
  mutable w_mail : mail list;
}

(* One executing instance of a function in one worker.

   Host-order vs virtual-order: fibers share the simulated heap, so the
   order in which the host actually runs them must respect the memory
   dependencies between chunks. The type system confines cross-chunk flows
   to unsafe memory written by ignore-helpers (declassification,
   enclave -> U); we therefore run spawned enclave fibers to completion
   *before* the untrusted chunk's body whenever the spawner is untrusted,
   while virtual clocks still overlap (the spawner does not advance its
   clock while host-waiting — only the final response time takes the
   max of all participants, which is when the paper's runtime would have
   delivered it). Programs whose enclave chunks consume S data stored by
   the U chunk of the *same* activation are outside this model (documented
   in DESIGN.md). *)
type activation = {
  act_seq : int;                     (* shared across participants *)
  act_root : int;                    (* seq of the request it serves *)
  act_rf : Dispatch.rfunc;           (* the function, resolved for its P *)
  mutable act_pending : int;         (* spawned fibers still running *)
  mutable act_done_max : float;      (* latest completion among spawned *)
  mutable act_done_flow : int;       (* trace flow of that completion *)
  mutable act_colors_done : Color.t list; (* spawned chunks completed *)
}

(* [act] and [calls] form the frame of the chunk the fiber is running:
   [calls] counts this participant's executions of each call site of
   [act], for the sequence agreement. *)
type fiber_ctx = {
  worker : worker;
  mutable act : activation;
  mutable calls : Dispatch.counts;
  clock : Vclock.t;
}

(* An application thread: its clock (requests on one thread serialize)
   and its workers, one per color, created on first use. *)
type thread = {
  th_clock : Vclock.t;
  mutable th_workers : worker list;
}

type t = {
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

let cpu_of_color = Dispatch.cpu_of_color

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
    let track =
      match t.ring with Some r -> worker_track r id color | None -> 0
    in
    let w = { w_thread = id; w_color = color; w_track = track;
              w_mail = [] } in
    th.th_workers <- w :: th.th_workers;
    w

let has_worker t ~thread:id color =
  id >= 0 && id < Array.length t.threads
  && find_worker color t.threads.(id).th_workers <> None

let restore t (ctx : fiber_ctx) =
  t.current <- Some ctx;
  t.exec.Exec.clock <- ctx.clock;
  t.exec.Exec.cpu <- cpu_of_color ctx.worker.w_color;
  (* keep the machine's trace events on the right worker track *)
  match t.exec.Exec.machine.Sgx.Machine.tap with
  | Some tp -> tp.Sgx.Machine.track <- ctx.worker.w_track
  | None -> ()

let ctx_exn t =
  match t.current with
  | Some c -> c
  | None -> raise (Error "no current fiber")

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


let[@inline] chunk_note t (ctx : fiber_ctx) kind (ch : Dispatch.chunk) =
  note t ~track:ctx.worker.w_track kind ~arg:ch.Dispatch.ch_name
    (Vclock.get ctx.clock)

(* ------------------------------------------------------------------ *)
(* messaging *)

let send_cont t (ctx : fiber_ctx) (target : worker) ~seq ~tag ~value =
  let cost = t.crossing t.exec.Exec.machine in
  Vclock.add ctx.clock (cost);
  let flow =
    send_flow t ~track:ctx.worker.w_track
      (match tag with Retval -> Ev.Send Ev.Retval | Token -> Ev.Send Ev.Token)
      (Vclock.get ctx.clock)
  in
  target.w_mail <-
    target.w_mail
    @ [ { sent_at = (Vclock.get ctx.clock); flow; payload = Cont { seq; tag; value } } ]

let wait_cont t (ctx : fiber_ctx) ~seq ~tag : Rvalue.t =
  let w = ctx.worker in
  let matches m =
    match m.payload with
    | Cont c -> c.seq = seq && c.tag = tag
  in
  let pred () = List.exists matches w.w_mail in
  let arrival () =
    match List.find_opt matches w.w_mail with
    | Some m -> m.sent_at
    | None -> (Vclock.get ctx.clock)
  in
  Sched.block pred arrival;
  restore t ctx;
  let msg =
    match List.find_opt matches w.w_mail with
    | Some m -> m
    | None -> raise (Error "wait_cont: message vanished")
  in
  w.w_mail <- List.filter (fun m -> not (m == msg)) w.w_mail;
  Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) msg.sent_at);
  if msg.flow >= 0 then
    note t ~track:w.w_track
      (match tag with Retval -> Ev.Recv Ev.Retval | Token -> Ev.Recv Ev.Token)
      ~arg:msg.flow (Vclock.get ctx.clock);
  match msg.payload with Cont c -> c.value

(* ------------------------------------------------------------------ *)
(* plan helpers *)

let act_name (act : activation) =
  Infer.instance_name act.act_rf.Dispatch.rf_pf.Plan.pf_key

(* The chunk a participant of color [c] executes for [act]. *)
let chunk_exn (act : activation) (c : Color.t) : Dispatch.chunk =
  match Dispatch.chunk act.act_rf c with
  | Some ch -> ch
  | None ->
    raise
      (Error
         (Printf.sprintf "no %s chunk in %s" (Color.to_string c)
            (act_name act)))

(* A fresh activation; [root] defaults to the activation itself (a new
   request). *)
let new_act ?root ~seq rf =
  {
    act_seq = seq;
    act_root = Option.value root ~default:seq;
    act_rf = rf;
    act_pending = 0;
    act_done_max = 0.0;
    act_done_flow = -1;
    act_colors_done = [];
  }

let fresh_act t ?root rf = new_act ?root ~seq:(Dispatch.fresh_seq t.disp) rf

(* ------------------------------------------------------------------ *)
(* chunk execution *)

let rec exec_chunk t (ctx : fiber_ctx) (act : activation) (c : Color.t)
    (args : Rvalue.t array) : Rvalue.t =
  let saved = ctx.act and saved_calls = ctx.calls in
  ctx.act <- act;
  ctx.calls <- Dispatch.counts ();
  let ch = chunk_exn act c in
  chunk_note t ctx Ev.Chunk_begin ch;
  let r = Dispatch.run_chunk t.exec ch args in
  chunk_note t ctx Ev.Chunk_end ch;
  ctx.act <- saved;
  ctx.calls <- saved_calls;
  r

(* Start a fiber executing chunk [c] of [act] on worker (thread, c).
   [siblings] is the full set of chunks spawned together for the same
   activation: fibers run in color order (host side) so that
   declassifications flow forward — a fiber also inherits the completion
   time of the stage before it, which models the cont/wait dependency
   chain of the paper's runtime between enclaves of one activation. *)
and spawn_chunk_fiber t ?(forged = false) ~thread (act : activation)
    (c : Color.t) ?(siblings = []) (args : Rvalue.t array) ~at
    ~(reply_to : (int * Color.t) list) =
  let w = worker t thread c in
  let chunk_name = (chunk_exn act c).Dispatch.ch_func.Func.name in
  (* §8 extension: the valid-spawn-sequence guard. Every spawn — including
     injected ones — is validated against the plan's legitimate targets. *)
  if
    t.guard && forged
    && not (Plan.spawn_allowed t.plan c chunk_name)
  then raise (Error (Printf.sprintf "spawn guard: %s rejected in %s"
                       chunk_name (Color.to_string c)));
  (* formatted only when a trace, a trap or a deadlock report reads it *)
  let name =
    lazy (Printf.sprintf "t%d/%s:%s" thread (Color.to_string c) (act_name act))
  in
  act.act_pending <- act.act_pending + 1;
  (* spawn message: sender is whatever worker is currently running (the
     spawner), receiver is the fresh fiber on [w] *)
  let spawn_flow =
    let from_track =
      match t.current with Some ctx -> ctx.worker.w_track | None -> w.w_track
    in
    send_flow t ~track:from_track (Ev.Send Ev.Spawn) at
  in
  let earlier = List.filter (fun d -> Color.compare d c < 0) siblings in
  ignore
    (Sched.spawn t.sched ~name ~track:w.w_track ~at (fun clock ->
         let ctx = { worker = w; act; calls = Dispatch.counts (); clock } in
         restore t ctx;
         if spawn_flow >= 0 then
           note t ~track:w.w_track (Ev.Recv Ev.Spawn) ~arg:spawn_flow
             (Vclock.get clock);
         if earlier <> [] then begin
           Sched.block
             (fun () ->
               List.for_all
                 (fun d -> List.exists (Color.equal d) act.act_colors_done)
                 earlier)
             (fun () -> Float.max (Vclock.get clock) act.act_done_max);
           restore t ctx;
           let waited = (Vclock.get clock) < act.act_done_max in
           Vclock.set clock (Float.max (Vclock.get clock) act.act_done_max);
           if waited && act.act_done_flow >= 0 then
             note t ~track:w.w_track (Ev.Recv Ev.Done) ~arg:act.act_done_flow
               (Vclock.get clock)
         end;
         (match exec_chunk t ctx act c args with
         | r ->
           List.iter
             (fun (th, color) ->
               send_cont t ctx (worker t th color) ~seq:act.act_seq ~tag:Retval
                 ~value:r)
             reply_to;
           let tc = thread_clock t thread in
           Vclock.set tc (Float.max (Vclock.get tc) (Vclock.get clock))
         | exception Exec.Trap msg ->
           t.traps <- (Lazy.force name ^ ": " ^ msg) :: t.traps);
         (* completion signal back to the spawner (one crossing) *)
         Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
         act.act_pending <- act.act_pending - 1;
         let now = Vclock.get ctx.clock in
         if now >= act.act_done_max && Option.is_some t.ring then
           act.act_done_flow <-
             send_flow t ~track:w.w_track (Ev.Send Ev.Done) now;
         act.act_done_max <- Float.max act.act_done_max (Vclock.get ctx.clock);
         act.act_colors_done <- c :: act.act_colors_done))

(* Host-side wait for every spawned fiber of [act] to finish. An enclave
   waiter is data-dependent on the spawned stage (the paper's cont/wait),
   so its clock advances to the stage's completion; the untrusted
   interface overlaps instead (Fig. 7) — its response time takes the max
   at the end of the request. *)
and host_wait_spawned ?(bump = true) t (ctx : fiber_ctx) (act : activation) =
  if act.act_pending > 0 then begin
    Sched.block (fun () -> act.act_pending = 0) (fun () -> (Vclock.get ctx.clock));
    restore t ctx;
    if bump && Color.is_enclave ctx.worker.w_color then begin
      let waited = (Vclock.get ctx.clock) < act.act_done_max in
      Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) act.act_done_max);
      if waited && act.act_done_flow >= 0 then
        note t ~track:ctx.worker.w_track (Ev.Recv Ev.Done)
          ~arg:act.act_done_flow (Vclock.get ctx.clock)
    end
  end

(* ------------------------------------------------------------------ *)
(* call dispatch *)

and dispatch_call t (i : Instr.t) callee (args : Rvalue.t array) : Rvalue.t =
  let ctx = ctx_exn t in
  match Dispatch.resolved ctx.act.act_rf i.Instr.id with
  | Dispatch.Call site -> dispatch_local_call t ctx i site args
  | Dispatch.Extern -> dispatch_extern t ctx i callee args
  | Dispatch.Unplanned | Dispatch.Thread _ | Dispatch.Indirect _ ->
    if Pmodule.is_defined t.exec.Exec.m callee then
      (* a defined function without a plan entry: a within-style direct
         execution in the current worker (single-participant call) *)
      raise
        (Error
           (Printf.sprintf "call to @%s at instr %d has no plan in %s" callee
              i.Instr.id (act_name ctx.act)))
    else dispatch_extern t ctx i callee args

and dispatch_extern t (ctx : fiber_ctx) (i : Instr.t) callee args =
  Dispatch.dispatch_extern t.disp t.exec ~color:ctx.worker.w_color
    ~caller:ctx.act.act_rf.Dispatch.rf_pf.Plan.pf_key.Infer.ik_func i callee
    args

and dispatch_local_call t (ctx : fiber_ctx) (i : Instr.t)
    (site : Dispatch.rsite) (args : Rvalue.t array) : Rvalue.t =
  let c = ctx.worker.w_color in
  let thread = ctx.worker.w_thread in
  let parent = ctx.act in
  let callee = site.Dispatch.rs_callee in
  (* every participant of the site gets the same child activation *)
  let child_act =
    Dispatch.child t.disp ~calls:ctx.calls ~root:parent.act_root
      ~seq:parent.act_seq ~instr:i.Instr.id ~takers:site.Dispatch.rs_takers
      (fun seq -> new_act ~root:parent.act_root ~seq callee)
  in
  let seq = child_act.act_seq in
  let { Dispatch.s_leader = leader; s_inter = inter; s_spawned = spawned;
        s_ret_sender = ret_sender } =
    site.Dispatch.rs_layout
  in
  (* which participants need the return value via message *)
  let needers = site.Dispatch.rs_needers in
  let is_sender = match ret_sender with Some d -> Color.equal c d | None -> false in
  (* the leader starts the missing chunks *)
  if Color.equal c leader && spawned <> [] then begin
    let f_reg_args = site.Dispatch.rs_f_reg_args in
    List.iter
      (fun d ->
        let reply_to =
          match inter, ret_sender with
          | [], Some r when Color.equal d r ->
            List.map (fun n -> (thread, n)) needers
          | _ -> []
        in
        (* one spawn message, plus one cont per computed F argument *)
        let cost = t.crossing t.exec.Exec.machine in
        Vclock.add ctx.clock (cost);
        for _ = 1 to f_reg_args do
          Vclock.add ctx.clock (t.crossing t.exec.Exec.machine)
        done;
        spawn_chunk_fiber t ~thread child_act d ~siblings:spawned args ~at:(Vclock.get ctx.clock) ~reply_to)
      spawned;
    (* host ordering: an untrusted leader lets the enclave fibers run to
       completion before executing its own chunk, so that declassified
       values written to unsafe memory are visible to it *)
    if not (Color.is_enclave c) then host_wait_spawned t ctx child_act
  end;
  let result =
    if callee.Dispatch.rf_pure then
      (* pure-F callee: replicated, executes inline everywhere *)
      exec_chunk t ctx child_act c args
    else if List.exists (Color.equal c) callee.Dispatch.rf_participants then begin
      (* direct call (§7.3.2): inline execution in this worker *)
      let r = exec_chunk t ctx child_act c args in
      restore t ctx;
      (if is_sender && inter <> [] then
         List.iter
           (fun d ->
             send_cont t ctx (worker t thread d) ~seq ~tag:Retval ~value:r)
           needers);
      r
    end
    else if List.exists (Color.equal c) needers then wait_cont t ctx ~seq ~tag:Retval
    else Rvalue.zero
  in
  (* an enclave leader waits after its own (direct) work *)
  if Color.equal c leader && Color.is_enclave c then
    host_wait_spawned t ctx child_act;
  result

(* Indirect call to a defined function (§6.3, §7.3.4): the interface-style
   entry executes in the current (untrusted) worker, which starts the
   missing chunks itself — the call site lives in a single chunk because an
   indirect call instruction is U-colored. *)
and dispatch_indirect_local t (ctx : fiber_ctx) (i : Instr.t) name
    (args : Rvalue.t array) : Rvalue.t =
  let c = ctx.worker.w_color in
  let thread = ctx.worker.w_thread in
  let rf =
    match Dispatch.indirect t.disp name ~color:c with
    | Some rf -> rf
    | None ->
      let f = Pmodule.find_func_exn t.exec.Exec.m name in
      raise
        (Error
           ("no partitioned function for "
           ^ Infer.instance_name (Dispatch.indirect_entry_key t.plan f)))
  in
  let act = fresh_act t ~root:ctx.act.act_root rf in
  if rf.Dispatch.rf_pure then exec_chunk t ctx act c args
  else begin
    let cs = rf.Dispatch.rf_pf.Plan.pf_colorset in
    let in_cs = List.exists (Color.equal c) cs in
    let i_need =
      (not in_cs)
      &&
      match
        Dispatch.resolved ctx.act.act_rf i.Instr.id,
        Dispatch.chunk ctx.act.act_rf c
      with
      | Dispatch.Indirect readers, Some ch ->
        List.exists (Color.equal ch.Dispatch.ch_color) readers
      | _ -> false
    in
    let first = match cs with d :: _ -> d | [] -> c in
    let spawned_cs = List.filter (fun d -> not (Color.equal d c)) cs in
    List.iter
      (fun d ->
        let reply_to =
          if i_need && Color.equal d first then [ (thread, c) ] else []
        in
        Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
        spawn_chunk_fiber t ~thread act d ~siblings:spawned_cs args
          ~at:(Vclock.get ctx.clock) ~reply_to)
      spawned_cs;
    if in_cs then exec_chunk t ctx act c args
    else if i_need then wait_cont t ctx ~seq:act.act_seq ~tag:Retval
    else Rvalue.zero
  end

(* thread creation: start every chunk of the target instance on the workers
   of a fresh application thread *)
and dispatch_spawn t (i : Instr.t) (args : Rvalue.t array) =
  let ctx = ctx_exn t in
  match Dispatch.resolved ctx.act.act_rf i.Instr.id with
  | Dispatch.Thread rf ->
    Exec.charge t.exec (Sgx.Machine.thread_spawn_cost t.exec.Exec.machine);
    let thread = t.next_thread in
    t.next_thread <- thread + 1;
    let cs = rf.Dispatch.rf_participants in
    let act = fresh_act t ~root:ctx.act.act_root rf in
    List.iter
      (fun d ->
        Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
        spawn_chunk_fiber t ~thread act d ~siblings:cs args ~at:(Vclock.get ctx.clock) ~reply_to:[])
      cs
  | Dispatch.Unplanned | Dispatch.Extern | Dispatch.Call _
  | Dispatch.Indirect _ ->
    raise (Error "spawn site without plan")

(* ------------------------------------------------------------------ *)

let make_hooks t : Exec.hooks =
  {
    Exec.h_call = (fun _ i callee args -> dispatch_call t i callee args);
    h_callind =
      (fun ex i fv args ->
        let name = Exec.resolve_func ex fv in
        if Pmodule.is_defined ex.Exec.m name then
          dispatch_indirect_local t (ctx_exn t) i name args
        else dispatch_extern t (ctx_exn t) i name args);
    h_spawn = (fun _ i _ args -> dispatch_spawn t i args);
    h_pre_instr =
      (fun ex i ->
        (* §7.3.3: a visible effect in a multi-partition instance costs a
           synchronization barrier (one cont/wait round) *)
        match t.current with
        | Some ctx when Dispatch.barrier ctx.act.act_rf i.Instr.id ->
          Exec.charge ex (t.crossing ex.Exec.machine);
          note t ~track:ctx.worker.w_track Ev.Barrier ~arg:0
            (Vclock.get ctx.clock)
        | _ -> ());
    h_alloca_zone =
      (fun _ ty ->
        let current =
          match t.current with
          | Some ctx -> ctx.worker.w_color
          | None -> Color.Unsafe
        in
        Dispatch.alloca_zone ty ~current);
  }

let dummy_hooks : Exec.hooks =
  {
    Exec.h_call = (fun _ _ _ _ -> Rvalue.zero);
    h_callind = (fun _ _ _ _ -> Rvalue.zero);
    h_spawn = (fun _ _ _ _ -> ());
    h_pre_instr = (fun _ _ -> ());
    h_alloca_zone = (fun _ _ -> Heap.Unsafe);
  }

let create ?(config = Sgx.Config.machine_b) ?cost
    ?(crossing = Sgx.Machine.queue_msg_cost) ?engine (plan : Plan.t) : t =
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
  let ex = Exec.create m heap layout machine dummy_hooks in
  (* globals placed per §7.1 *)
  Exec.init_globals ex (Dispatch.global_zone plan);
  let image =
    match engine with
    | Exec.Image ->
      let img = Image.build ~plan ~sites ex in
      Image.install ex img;
      Some img
    | Exec.Walk -> None
  in
  let t =
    {
      plan;
      exec = ex;
      disp = Dispatch.create ~sites ?image plan;
      sched = Sched.create ();
      threads = [||];
      crossing;
      current = None;
      next_thread = 1;
      traps = [];
      guard = true;
      ring = None;
      next_flow = 0;
    }
  in
  ex.Exec.hooks <- make_hooks t;
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
  let en =
    match Dispatch.entry t.disp name with
    | Some e -> e
    | None -> raise (Error ("not an entry point: " ^ name))
  in
  let direct = en.Dispatch.en_direct in
  Heap.reset_stacks t.exec.Exec.heap;
  let now = (Vclock.get (thread_clock t thread)) in
  let argv = Array.of_list args in
  let act = fresh_act t en.Dispatch.en_rf in
  let slot = ref None in
  let uw = worker t thread Color.Unsafe in
  (* interface fiber on the U worker (§7.3.4) *)
  let name_ = lazy (Printf.sprintf "t%d/interface:%s" thread name) in
  ignore
    (* parent = its own track: a request is serialized after earlier
       requests on the same application thread (the thread clock) *)
    (Sched.spawn t.sched ~name:name_ ~track:uw.w_track ~parent:uw.w_track
       ~at:now (fun clock ->
         let ctx = { worker = uw; act; calls = Dispatch.counts (); clock } in
         restore t ctx;
         (* start the missing chunks *)
         let spawned_cs = en.Dispatch.en_spawned in
         List.iter
           (fun d ->
             let reply_to =
               match en.Dispatch.en_replier with
               | Some r when Color.equal d r -> [ (thread, Color.Unsafe) ]
               | _ -> []
             in
             Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
             spawn_chunk_fiber t ~thread act d ~siblings:spawned_cs argv
               ~at:(Vclock.get ctx.clock) ~reply_to)
           spawned_cs;
         (* enclave chunks complete (host order) before the U chunk body *)
         host_wait_spawned t ctx act;
         let r =
           match direct with
           | Some dc -> exec_chunk t ctx act dc argv
           | None -> wait_cont t ctx ~seq:act.act_seq ~tag:Retval
         in
         (* the response leaves once every participant is done; when an
            enclave finished last, its completion signal gates the
            response — a binding happens-before edge *)
         let finish = Float.max (Vclock.get ctx.clock) act.act_done_max in
         if act.act_done_max > Vclock.get ctx.clock && act.act_done_flow >= 0
         then
           note t ~track:uw.w_track (Ev.Recv Ev.Done) ~arg:act.act_done_flow
             finish;
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
    Dispatch.release t.disp ~root:act.act_seq);
  (match t.traps with
  | [] -> ()
  | msgs ->
    t.traps <- [];
    raise (Error (String.concat "; " msgs)));
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
  (* resolve the chunk name to an instance *)
  match Dispatch.locate_chunk t.plan chunk with
  | None -> Result.Error ("no such chunk: " ^ chunk)
  | Some (_, pf, cc) ->
    if not (Color.equal cc color) then
      Result.Error
        (Printf.sprintf "chunk %s belongs to partition %s" chunk
           (Color.to_string cc))
    else begin
      let act = fresh_act t (Dispatch.shape t.disp pf [ color ]) in
      let now = (Vclock.get (thread_clock t thread)) in
      match
        spawn_chunk_fiber t ~forged:true ~thread act color
          (Array.of_list args) ~at:now ~reply_to:[]
      with
      | () ->
        ignore (Sched.run t.sched : Sched.outcome);
        Dispatch.release t.disp ~root:act.act_seq;
        (match t.traps with
        | [] -> Result.Ok ()
        | msgs ->
          t.traps <- [];
          Result.Error (String.concat "; " msgs))
      | exception Error msg -> Result.Error msg
    end

(* Enable/disable the spawn guard (for the attack demonstrations). *)
let set_spawn_guard t enabled = t.guard <- enabled
