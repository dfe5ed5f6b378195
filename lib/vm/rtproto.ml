(* The runtime protocol of §7.3, written once over a scheduler.

   Per application thread, one worker per partition color runs the chunks
   of that color. Dispatch resolves each call site at link time; this
   module carries the resolution out (§7.3.2-§7.3.4, §6.3).

   Host-order discipline (DESIGN.md §8.2): the chunks of one activation
   share the heap, so they run in an order that lets declassified values
   written to unsafe memory flow forward — spawned siblings in color
   order, an untrusted leader after the spawned stage, an enclave leader
   before it.

   A scheduler ([sched]) supplies how a message is sent and how a worker
   waits, never who sends what: Pinterp (virtual-time fibers, crossings
   charged in cycles) and Parallel (domains over lock-free queues). *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx

exception Error of string

type 's act = {
  act_seq : int;
  act_root : int;
  act_rf : Dispatch.rfunc;
  act_spawned : Color.t list;
  act_st : 's;
}

type ('c, 's) sched = {
  color : 'c -> Color.t;
  thread : 'c -> int;
  act : 'c -> 's act;
  calls : 'c -> Dispatch.counts;
  exec : 'c -> Exec.t;
  disp : 'c -> 's act Dispatch.t;
  plan : 'c -> Plan.t;
  state : unit -> 's;
  run : 'c -> 's act -> Dispatch.chunk -> Rvalue.t array -> Rvalue.t;
  send_spawn :
    'c -> thread:int -> 's act -> Color.t -> reply_to:(int * Color.t) list ->
    Rvalue.t array -> unit;
  wait_spawned : 'c -> 's act -> unit;
  wait_earlier : 'c -> 's act -> Color.t list -> unit;
  send_cont : 'c -> thread:int -> Color.t -> seq:int -> Rvalue.t -> unit;
  wait_cont : 'c -> seq:int -> Rvalue.t;
  barrier : 'c -> int -> unit;
  cross : 'c -> int -> unit;
  new_thread : 'c -> int;
  finish : 'c -> 's act -> ok:bool -> unit;
  trap : 'c -> 's act -> exn -> unit;
}

let act_name act = Infer.instance_name act.act_rf.Dispatch.rf_pf.Plan.pf_key

let chunk_name act c =
  match Dispatch.chunk act.act_rf c with
  | Some ch -> ch.Dispatch.ch_func.Func.name
  | None -> "<missing>"

(* The chunk a participant of color [c] executes for [act]. *)
let chunk_exn act c =
  match Dispatch.chunk act.act_rf c with
  | Some ch -> ch
  | None ->
    let c = Color.to_string c in
    raise (Error (Printf.sprintf "no %s chunk in %s" c (act_name act)))

(* [root] defaults to the activation itself: a new request. *)
let new_act ?root ~seq rf ~spawned st =
  { act_seq = seq; act_root = Option.value root ~default:seq; act_rf = rf;
    act_spawned = spawned; act_st = st }

let fresh_act disp ?root rf ~spawned st =
  new_act ?root ~seq:(Dispatch.fresh_seq disp) rf ~spawned st

let entry_call disp name st =
  match Dispatch.entry disp name with
  | Some en ->
    (en, fresh_act disp en.Dispatch.en_rf ~spawned:en.Dispatch.en_spawned st)
  | None -> raise (Error ("not an entry point: " ^ name))

let run s ctx act c args = s.run ctx act (chunk_exn act c) args

(* Start the chunks [colors] of [act] on [thread]'s workers, each spawn
   message after [cost] crossings; the chunk of color [replier] sends its
   result to [replies]. *)
let spawn_chunks s ctx ~thread act colors ~cost ~replier ~replies args =
  List.iter
    (fun d ->
      let reply_to =
        match replier with Some r when Color.equal d r -> replies | _ -> []
      in
      s.cross ctx cost;
      s.send_spawn ctx ~thread act d ~reply_to args)
    colors

(* ------------------------------------------------------------------ *)
(* calls *)

let extern s ctx i callee args =
  Dispatch.dispatch_extern (s.disp ctx) (s.exec ctx) ~color:(s.color ctx)
    ~caller:(s.act ctx).act_rf.Dispatch.rf_pf.Plan.pf_key.Infer.ik_func i
    callee args

(* A planned call site (§7.3.2). *)
let call_site s ctx (i : Instr.t) (site : Dispatch.rsite) args =
  let c = s.color ctx and thread = s.thread ctx and parent = s.act ctx in
  let callee = site.Dispatch.rs_callee and needers = site.Dispatch.rs_needers in
  let { Dispatch.s_leader = leader; s_inter = inter; s_spawned = spawned;
        s_ret_sender = ret_sender } =
    site.Dispatch.rs_layout
  in
  (* every participant of the site gets the same child activation *)
  let act =
    Dispatch.child (s.disp ctx) ~calls:(s.calls ctx) ~root:parent.act_root
      ~seq:parent.act_seq ~instr:i.Instr.id ~takers:site.Dispatch.rs_takers
      (fun seq -> new_act ~root:parent.act_root ~seq callee ~spawned (s.state ()))
  in
  let leads = Color.equal c leader in
  if leads && spawned <> [] then begin
    (* one spawn message per missing chunk, plus one cont per computed F
       argument; with no callee color at the site, a spawned chunk sends
       the return value *)
    let replier = if inter = [] then ret_sender else None in
    let replies =
      if replier = None then [] else List.map (fun n -> (thread, n)) needers
    in
    spawn_chunks s ctx ~thread act spawned
      ~cost:(1 + site.Dispatch.rs_f_reg_args) ~replier ~replies args;
    (* an untrusted leader lets the spawned enclave stage complete before
       its own body, so declassified values are visible to it *)
    if not (Color.is_enclave c) then s.wait_spawned ctx act
  end;
  let result =
    if callee.Dispatch.rf_pure then
      (* pure-F callee: replicated, executes inline everywhere *)
      run s ctx act c args
    else if List.exists (Color.equal c) callee.Dispatch.rf_participants then begin
      (* direct call: inline execution in this worker *)
      let r = run s ctx act c args in
      (match ret_sender with
      | Some d when Color.equal c d && inter <> [] ->
        List.iter (fun n -> s.send_cont ctx ~thread n ~seq:act.act_seq r) needers
      | _ -> ());
      r
    end
    else if List.exists (Color.equal c) needers then s.wait_cont ctx ~seq:act.act_seq
    else Rvalue.zero
  in
  (* an enclave leader waits after its own work *)
  if leads && Color.is_enclave c then s.wait_spawned ctx act;
  result

let call s ctx (i : Instr.t) callee args =
  let act = s.act ctx in
  match Dispatch.resolved act.act_rf i.Instr.id with
  | Dispatch.Call site -> call_site s ctx i site args
  | Dispatch.Extern -> extern s ctx i callee args
  | Dispatch.Unplanned | Dispatch.Thread _ | Dispatch.Indirect _ ->
    if Pmodule.is_defined (s.exec ctx).Exec.m callee then
      raise
        (Error
           (Printf.sprintf "call to @%s at instr %d has no plan in %s" callee
              i.Instr.id (act_name act)))
    else extern s ctx i callee args

(* Indirect call to a defined function (§6.3, §7.3.4): an interface-style
   entry in the current (untrusted) worker, which starts the missing chunks
   itself — an indirect call instruction is U-colored, so the call site
   lives in a single chunk. *)
let indirect s ctx (i : Instr.t) name args =
  let c = s.color ctx and thread = s.thread ctx and parent = s.act ctx in
  let rf =
    match Dispatch.indirect (s.disp ctx) name ~color:c with
    | Some rf -> rf
    | None ->
      let f = Pmodule.find_func_exn (s.exec ctx).Exec.m name in
      raise
        (Error
           ("no partitioned function for "
           ^ Infer.instance_name (Dispatch.indirect_entry_key (s.plan ctx) f)))
  in
  let cs = rf.Dispatch.rf_pf.Plan.pf_colorset in
  let spawned = List.filter (fun d -> not (Color.equal d c)) cs in
  let act =
    fresh_act (s.disp ctx) ~root:parent.act_root rf ~spawned (s.state ())
  in
  if rf.Dispatch.rf_pure then run s ctx act c args
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
    let replier = if i_need then List.nth_opt cs 0 else None in
    spawn_chunks s ctx ~thread act spawned ~cost:1 ~replier
      ~replies:[ (thread, c) ] args;
    if in_cs then run s ctx act c args
    else if i_need then s.wait_cont ctx ~seq:act.act_seq
    else Rvalue.zero
  end

(* The §7.3 [spawn] instruction: start every chunk of the target instance
   on the workers of a fresh application thread. *)
let spawn_thread s ctx (i : Instr.t) args =
  let parent = s.act ctx in
  match Dispatch.resolved parent.act_rf i.Instr.id with
  | Dispatch.Thread rf ->
    let thread = s.new_thread ctx in
    let cs = rf.Dispatch.rf_participants in
    let act =
      fresh_act (s.disp ctx) ~root:parent.act_root rf ~spawned:cs (s.state ())
    in
    spawn_chunks s ctx ~thread act cs ~cost:1 ~replier:None ~replies:[] args
  | Dispatch.Unplanned | Dispatch.Extern | Dispatch.Call _
  | Dispatch.Indirect _ ->
    raise (Error "spawn site without plan")

let hooks s current : Exec.hooks =
  {
    Exec.h_call = (fun _ i callee args -> call s (current ()) i callee args);
    h_callind =
      (fun ex i fv args ->
        let name = Exec.resolve_func ex fv in
        if Pmodule.is_defined ex.Exec.m name then
          indirect s (current ()) i name args
        else extern s (current ()) i name args);
    h_spawn = (fun _ i _ args -> spawn_thread s (current ()) i args);
    h_pre_instr =
      (fun _ i ->
        let ctx = current () in
        if Dispatch.barrier (s.act ctx).act_rf i.Instr.id then
          s.barrier ctx i.Instr.id);
    h_alloca_zone =
      (fun _ ty -> Dispatch.alloca_zone ty ~current:(s.color (current ())));
  }

let dummy_hooks : Exec.hooks =
  {
    Exec.h_call = (fun _ _ _ _ -> Rvalue.zero);
    h_callind = (fun _ _ _ _ -> Rvalue.zero);
    h_spawn = (fun _ _ _ _ -> ());
    h_pre_instr = (fun _ _ -> ());
    h_alloca_zone = (fun _ _ -> Heap.Unsafe);
  }

(* ------------------------------------------------------------------ *)
(* the receiving and the entry side *)

let receive s ctx act ~reply_to args =
  let c = s.color ctx in
  (* spawned siblings of one activation run in color order *)
  let earlier = List.filter (fun d -> Color.compare d c < 0) act.act_spawned in
  if earlier <> [] then s.wait_earlier ctx act earlier;
  match run s ctx act c args with
  | r ->
    List.iter
      (fun (th, d) -> s.send_cont ctx ~thread:th d ~seq:act.act_seq r)
      reply_to;
    s.finish ctx act ~ok:true
  | exception e ->
    s.trap ctx act e;
    s.finish ctx act ~ok:false

let entry s ctx act (en : Dispatch.entry) args =
  let thread = s.thread ctx in
  spawn_chunks s ctx ~thread act act.act_spawned ~cost:1
    ~replier:en.Dispatch.en_replier ~replies:[ (thread, Color.Unsafe) ] args;
  (* the enclave chunks complete before the untrusted body *)
  s.wait_spawned ctx act;
  match en.Dispatch.en_direct with
  | Some dc -> run s ctx act dc args
  | None -> s.wait_cont ctx ~seq:act.act_seq

(* ------------------------------------------------------------------ *)
(* §8: forged spawns *)

let forged_act disp plan ~chunk ~color st =
  match Dispatch.locate_chunk plan chunk with
  | None -> Result.Error ("no such chunk: " ^ chunk)
  | Some (_, _, cc) when not (Color.equal cc color) ->
    Result.Error
      (Printf.sprintf "chunk %s belongs to partition %s" chunk
         (Color.to_string cc))
  | Some (_, pf, _) ->
    Ok (fresh_act disp (Dispatch.shape disp pf [ color ]) ~spawned:[] st)

let spawn_guard plan act c =
  let name = chunk_name act c in
  if Plan.spawn_allowed plan c name then None
  else Some (Printf.sprintf "spawn guard: %s rejected in %s" name (Color.to_string c))

(* ------------------------------------------------------------------ *)

let setup ?(config = Sgx.Config.machine_b) ?cost ?engine ~shared plan =
  let engine = Option.value engine ~default:(Exec.default_engine ()) in
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
  if shared then Exec.warm_caches ex ~extra:(Dispatch.chunk_funcs plan);
  let image =
    if engine = Exec.Image then Some (Image.build ~plan ~sites ex) else None
  in
  Option.iter (Image.install ex) image;
  let disp = Dispatch.create ~sites ?image plan in
  if shared then Heap.set_concurrent heap true;
  (ex, disp)
