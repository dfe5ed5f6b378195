(* Backend-agnostic dispatch for executing a partition plan.

   Both interpreters of a plan — the virtual-time simulator (Pinterp) and
   the real-parallel backend (Privagic_parallel.Parallel) — make the same
   decisions from the same plan: which chunk a participant runs, who leads
   a call site, who must receive the return value, which child activation
   the participants of a call site share. This module holds those
   decisions so the two backends cannot drift; the backends keep only what
   genuinely differs (virtual clocks and fibers vs. domains and queues).

   The decisions are made once, at [create] — the link step of the
   partitioned runtime, as Image is the link step of the instructions.
   [create] resolves every partitioned function into an [rfunc]: its chunk
   (and chunk code) per color, its barrier set, and one resolved entry per
   instruction id, so a call site is an array index and the callee's
   record is a field of the site. An activation carries its record; the
   backends derive nothing per call. The records are built eagerly and
   never written after [create], so parallel workers share them without
   locking. The plan-level derivations ([site_presence], [site_layout],
   [ret_needers], [f_reg_args], [chunk_for], [barrier_at]) stay as the
   helpers the resolution is built from and as the reference the tests
   check the records against.

   Everything here is exception-free: lookups return options and each
   backend wraps misses in its own error type. The only exception that may
   escape is [Exec.Trap] from {!dispatch_extern} (unknown external), which
   both backends already treat as a program trap.

   The runtime-mutable state is the sequence agreement, and it lives only
   as long as the work it serves: the sequence counter, plus one
   rendezvous entry per multi-participant call site that some participant
   has reached and another has not yet. Per-participant counters live in
   the backends' chunk frames, not here; what a trapped request leaves is
   dropped by [release]. The rendezvous table sits behind its own mutex —
   uncontended in the single-threaded simulator. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx

(* A rendezvous key: the [n]-th execution of call site [instr] within
   parent activation [seq]. [seq] already names the function. The hash is
   plain arithmetic; the generic one walks the tuple on every lookup. *)
module Site = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((s, i, n) : t) (s', i', n') = s = s' && i = i' && n = n'
  let hash ((s, i, n) : t) = (((s * 65599) + i) * 65599) + n
end)

type 'a rendezvous = {
  r_act : 'a;         (* the child activation every participant uses *)
  r_root : int;       (* the request it belongs to *)
  mutable r_left : int; (* participants that have not taken it yet *)
}

(* call-site layout (§7.3.2) *)
type site = {
  s_leader : Color.t;        (* starts the missing chunks *)
  s_inter : Color.t list;    (* callee colors already at the site *)
  s_spawned : Color.t list;  (* callee colors that must be spawned *)
  s_ret_sender : Color.t option; (* who sends the return value *)
}

type chunk = {
  ch_color : Color.t;
  ch_func : Func.t;
  ch_code : Image.code option; (* None: walk engine, or not lowered *)
  ch_name : int; (* index of the function's name in [chunk_names] *)
}

(* A partitioned function resolved for one participant set. Every array
   is indexed by instruction id and written only while [create] runs. *)
type rfunc = {
  rf_pf : Plan.pfunc;
  rf_participants : Color.t list;
  rf_pure : bool;                      (* pure-F: one replicated chunk *)
  rf_chunks : chunk list;
  rf_barrier : bool array;             (* barrier_at for these participants *)
  rf_presence : Color.t list array;    (* site_presence *)
  rf_sites : resolved array;
}

and resolved =
  | Unplanned
  | Extern
  | Call of rsite
  | Thread of rfunc
  | Indirect of Color.t list

and rsite = {
  rs_callee : rfunc;
  rs_p_site : Color.t list;
  rs_takers : int;
  rs_layout : site;
  rs_needers : Color.t list;
  rs_f_reg_args : int;
}

type entry = {
  en_rf : rfunc;
  en_direct : Color.t option;
  en_spawned : Color.t list;
  en_replier : Color.t option;
}

(* What resolution links chunks against: the image's code, and the
   index of every chunk function name. *)
and link = { l_image : Image.t option; l_names : (string, int) Hashtbl.t }

type 'a t = {
  plan : Plan.t;
  link : link;
  sites : (string * int, Ty.t) Hashtbl.t; (* multicolor alloc sites *)
  shapes : (Infer.instance_key * Color.t list, rfunc) Hashtbl.t;
      (* every record built at create, by (function, participants) *)
  entries : (string, entry) Hashtbl.t;
  indirect : (string, rfunc) Hashtbl.t; (* defined function name -> record *)
  seq_counter : int Atomic.t;
  rendezvous : 'a rendezvous Site.t;
  mu : Mutex.t; (* rendezvous table only *)
}

(* ------------------------------------------------------------------ *)
(* color/zone mapping *)

let zone_of_color (c : Color.t) : Heap.zone =
  match c with
  | Color.Named e -> Heap.Enclave e
  | _ -> Heap.Unsafe

let cpu_of_color (c : Color.t) : Sgx.Machine.zone =
  match c with
  | Color.Named e -> Sgx.Machine.Enclave e
  | _ -> Sgx.Machine.Normal

(* §7.1: globals placed per the plan; unplaced globals are unsafe. *)
let global_zone (plan : Plan.t) name : Heap.zone =
  match List.assoc_opt name plan.Plan.global_placement with
  | Some c -> zone_of_color c
  | None -> Heap.Unsafe

(* Alloca placement: stack slots of a colored type go to that enclave;
   everything else follows the executing worker's partition. *)
let alloca_zone (ty : Ty.t) ~(current : Color.t) : Heap.zone =
  match Cenv.root_color ty with
  | Some (Color.Named e) -> Heap.Enclave e
  | Some _ | None -> zone_of_color current

(* ------------------------------------------------------------------ *)
(* plan-level derivations: the helpers [create] resolves from, and the
   reference the resolved records are tested against *)

(* The chunk a participant of color [c] executes for [pf]: its own chunk,
   or the single Free chunk of a pure-F (replicated) function. *)
let chunk_for (pf : Plan.pfunc) (c : Color.t) : Func.t option =
  let target = if pf.Plan.pf_colorset = [] then Color.Free else c in
  match Plan.find_chunk pf target with
  | Some ci -> Some ci.Plan.ci_func
  | None -> None

(* Every chunk function of the plan (cache pre-warming). *)
let chunk_funcs (plan : Plan.t) : Func.t list =
  Hashtbl.fold
    (fun _ (pf : Plan.pfunc) acc ->
      List.fold_left
        (fun acc (ci : Plan.chunk_info) -> ci.Plan.ci_func :: acc)
        acc pf.Plan.pf_chunks)
    plan.Plan.pfuncs []

(* Resolve a chunk function name back to its instance (spawn injection). *)
let locate_chunk (plan : Plan.t) (chunk : string) :
    (Infer.instance_key * Plan.pfunc * Color.t) option =
  let found = ref None in
  Hashtbl.iter
    (fun key (pf : Plan.pfunc) ->
      List.iter
        (fun (ci : Plan.chunk_info) ->
          if String.equal ci.Plan.ci_func.Func.name chunk then
            found := Some (key, pf, ci.Plan.ci_color))
        pf.Plan.pf_chunks)
    plan.Plan.pfuncs;
  !found

(* Colors of the chunks that contain instruction [id] — the participants
   of a call site within a non-pure-F caller. *)
let site_presence (pf : Plan.pfunc) (id : int) : Color.t list =
  List.filter_map
    (fun (ci : Plan.chunk_info) ->
      let found = ref false in
      Func.iter_instrs ci.Plan.ci_func (fun _ i ->
          if i.Instr.id = id then found := true);
      if !found then Some ci.Plan.ci_color else None)
    pf.Plan.pf_chunks

(* Does chunk [f] read register [r]? (return-value need) *)
let chunk_needs (f : Func.t) (r : int) : bool = Plan.chunk_uses f r

(* §7.3.3: does this instruction carry a synchronization barrier here? *)
let barrier_at (pf : Plan.pfunc) (id : int) ~(participants : Color.t list) :
    bool =
  Hashtbl.mem pf.Plan.pf_barriers id && List.length participants > 1

let site_layout ~(p_site : Color.t list) ~(callee_cs : Color.t list)
    ~(self : Color.t) : site =
  let leader = match p_site with d :: _ -> d | [] -> self in
  let inter = List.filter (fun d -> List.mem d p_site) callee_cs in
  let spawned = List.filter (fun d -> not (List.mem d p_site)) callee_cs in
  let ret_sender =
    match inter with
    | d :: _ -> Some d
    | [] -> ( match spawned with d :: _ -> Some d | [] -> None)
  in
  { s_leader = leader; s_inter = inter; s_spawned = spawned; s_ret_sender = ret_sender }

(* Participants outside the callee whose chunk reads the call's result
   register — they receive it in a cont message. *)
let ret_needers ~(caller_pf : Plan.pfunc) ~(p_site : Color.t list)
    ~(callee_cs : Color.t list) (i : Instr.t) : Color.t list =
  match Instr.defines i with
  | None -> []
  | Some id ->
    List.filter
      (fun d ->
        (not (List.mem d callee_cs))
        &&
        match chunk_for caller_pf d with
        | Some f -> chunk_needs f id
        | None -> false)
      p_site

(* Number of computed (register) F arguments at a call site — each one
   travels to the spawned chunks in its own cont message (the paper's
   trampolines), costing one crossing. *)
let f_reg_args (cp : Plan.call_plan) (i : Instr.t) : int =
  let call_args =
    match i.Instr.op with
    | Instr.Call (_, a) | Instr.Spawn (_, a) -> a
    | _ -> []
  in
  let rec count acs args n =
    match acs, args with
    | ac :: acs', arg :: args' ->
      let is_f_reg =
        Color.equal ac Color.Free
        && match arg with Value.Reg _ -> true | _ -> false
      in
      count acs' args' (if is_f_reg then n + 1 else n)
    | _ -> n
  in
  count cp.Plan.cp_key.Infer.ik_args call_args 0

(* §6.3/§7.3.4: the instance key under which an indirect call enters a
   defined function — scalar parameters keep their declared color,
   pointers enter at the mode's entry color. *)
let indirect_entry_key (plan : Plan.t) (f : Func.t) : Infer.instance_key =
  let entry_args =
    List.map
      (fun ((_, pty) : string * Ty.t) ->
        match Cenv.root_color pty with
        | Some c when not (Ty.is_pointer pty) -> c
        | _ -> Mode.entry_color plan.Plan.mode)
      f.Func.params
  in
  { Infer.ik_func = f.Func.name; Infer.ik_args = entry_args }

(* ------------------------------------------------------------------ *)
(* resolution (create time) *)

(* The participants of an activation nobody passes a site to: an entry,
   a thread, an indirect call into a colored function. *)
let own_participants (pf : Plan.pfunc) =
  match pf.Plan.pf_colorset with [] -> [ Color.Free ] | cs -> cs

(* An unfilled record: chunks, barriers and presence, with every site
   still [Unplanned]. *)
let shell (link : link) (pf : Plan.pfunc) parts : rfunc =
  let chunks =
    List.map
      (fun (ci : Plan.chunk_info) ->
        let f = ci.Plan.ci_func in
        { ch_color = ci.Plan.ci_color; ch_func = f;
          ch_code = Option.bind link.l_image (fun img -> Image.find_code img f);
          ch_name = Hashtbl.find link.l_names f.Func.name })
      pf.Plan.pf_chunks
  in
  let top = ref (-1) in
  List.iter
    (fun ch -> Func.iter_instrs ch.ch_func (fun _ i -> top := Int.max !top i.Instr.id))
    chunks;
  Hashtbl.iter (fun id () -> top := Int.max !top id) pf.Plan.pf_barriers;
  let size = !top + 1 in
  let presence = Array.make size [] in
  List.iter
    (fun ch ->
      Func.iter_instrs ch.ch_func (fun _ i ->
          presence.(i.Instr.id) <- presence.(i.Instr.id) @ [ ch.ch_color ]))
    chunks;
  let barrier = Array.make size false in
  if List.length parts > 1 then
    Hashtbl.iter (fun id () -> barrier.(id) <- true) pf.Plan.pf_barriers;
  { rf_pf = pf; rf_participants = parts; rf_pure = pf.Plan.pf_colorset = [];
    rf_chunks = chunks; rf_barrier = barrier; rf_presence = presence;
    rf_sites = Array.make size Unplanned }

(* Resolve [pf] for participants [parts] into [memo], together with every
   record its sites reach. A record enters [memo] before its sites are
   filled, so recursion through recursive functions ends. *)
let rec resolve_into (plan : Plan.t) link memo (pf : Plan.pfunc) parts :
    rfunc =
  match Hashtbl.find_opt memo (pf.Plan.pf_key, parts) with
  | Some rf -> rf
  | None ->
    let rf = shell link pf parts in
    Hashtbl.replace memo (pf.Plan.pf_key, parts) rf;
    (* a call instruction is the same record in every chunk holding it *)
    List.iter
      (fun ch ->
        Func.iter_instrs ch.ch_func (fun _ i ->
            match rf.rf_sites.(i.Instr.id) with
            | Unplanned ->
              rf.rf_sites.(i.Instr.id) <- resolve_site plan link memo rf i
            | _ -> ()))
      rf.rf_chunks;
    rf

and resolve_site plan link memo (rf : rfunc) (i : Instr.t) : resolved =
  let pf = rf.rf_pf in
  let resolve pf' parts = resolve_into plan link memo pf' parts in
  match i.Instr.op with
  | Instr.Call (callee, _) -> (
    match Hashtbl.find_opt pf.Plan.pf_calls i.Instr.id with
    | Some cp -> (
      match Plan.find_pfunc plan cp.Plan.cp_key with
      | None -> Unplanned
      | Some callee_pf ->
        let callee_cs = callee_pf.Plan.pf_colorset in
        let p_site =
          if rf.rf_pure then rf.rf_participants
          else rf.rf_presence.(i.Instr.id)
        in
        (* p_site is never empty for an instruction some chunk holds, so
           the layout is the same for every participant color *)
        let self = match p_site with d :: _ -> d | [] -> Color.Free in
        Call
          { rs_callee =
              resolve callee_pf (if callee_cs = [] then p_site else callee_cs);
            rs_p_site = p_site;
            rs_takers = List.length p_site;
            rs_layout = site_layout ~p_site ~callee_cs ~self;
            rs_needers = ret_needers ~caller_pf:pf ~p_site ~callee_cs i;
            rs_f_reg_args = f_reg_args cp i })
    | None ->
      if Pmodule.is_defined plan.Plan.pmodule callee then Unplanned else Extern)
  | Instr.Spawn _ -> (
    match Infer.call_site plan.Plan.infer pf.Plan.pf_key i.Instr.id with
    | None -> Unplanned
    | Some key -> (
      match Plan.find_pfunc plan key with
      | Some callee_pf -> Thread (resolve callee_pf (own_participants callee_pf))
      | None -> Unplanned))
  | Instr.Callind _ ->
    (* the caller chunks that read the result of an indirect call *)
    Indirect
      (match Instr.defines i with
      | None -> []
      | Some id ->
        List.filter_map
          (fun ch -> if chunk_needs ch.ch_func id then Some ch.ch_color else None)
          rf.rf_chunks)
  | _ -> Unplanned

(* Colors a worker can have: an indirect call into a pure-F function runs
   it with the calling worker as its only participant. *)
let worker_colors (plan : Plan.t) : Color.t list =
  Hashtbl.fold
    (fun _ (pf : Plan.pfunc) acc ->
      List.fold_left
        (fun acc c -> if List.exists (Color.equal c) acc then acc else acc @ [ c ])
        acc pf.Plan.pf_colorset)
    plan.Plan.pfuncs [ Color.Free; Color.Unsafe ]

let chunk_name_list (plan : Plan.t) =
  List.sort_uniq compare
    (List.map (fun (f : Func.t) -> f.Func.name) (chunk_funcs plan))

let create ?sites ?image (plan : Plan.t) : 'a t =
  let shapes = Hashtbl.create 64 in
  let names = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace names n i) (chunk_name_list plan);
  let link = { l_image = image; l_names = names } in
  let resolve pf parts = resolve_into plan link shapes pf parts in
  Hashtbl.iter (fun _ pf -> ignore (resolve pf (own_participants pf))) plan.Plan.pfuncs;
  let entries = Hashtbl.create 8 in
  List.iter
    (fun (ep : Plan.entry_plan) ->
      match Plan.find_pfunc plan ep.Plan.ep_key with
      | Some pf when not (Hashtbl.mem entries ep.Plan.ep_name) ->
        let cs = pf.Plan.pf_colorset in
        let direct =
          if List.exists (Color.equal Color.Unsafe) cs then Some Color.Unsafe
          else if cs = [] then Some Color.Free
          else None
        in
        let rf = resolve pf (own_participants pf) in
        Hashtbl.replace entries ep.Plan.ep_name
          { en_rf = rf; en_direct = direct;
            en_spawned =
              List.filter
                (fun d ->
                  match direct with
                  | Some dc -> not (Color.equal d dc)
                  | None -> true)
                rf.rf_participants;
            en_replier =
              (match direct, cs with None, d :: _ -> Some d | _ -> None) }
      | _ -> ())
    plan.Plan.entries;
  let indirect = Hashtbl.create 16 in
  let colors = worker_colors plan in
  Pmodule.iter_funcs plan.Plan.pmodule (fun f ->
      match Plan.find_pfunc plan (indirect_entry_key plan f) with
      | None -> ()
      | Some pf ->
        Hashtbl.replace indirect f.Func.name (resolve pf (own_participants pf));
        if pf.Plan.pf_colorset = [] then
          List.iter (fun c -> ignore (resolve pf [ c ])) colors);
  {
    plan;
    link;
    sites =
      (match sites with
      | Some s -> s
      | None -> Exec.alloc_sites plan.Plan.pmodule);
    shapes;
    entries;
    indirect;
    seq_counter = Atomic.make 0;
    rendezvous = Site.create 64;
    mu = Mutex.create ();
  }

let[@inline] locked t f = Mutex.protect t.mu f

let chunk_names t =
  let a = Array.make (Hashtbl.length t.link.l_names) "" in
  Hashtbl.iter (fun n i -> a.(i) <- n) t.link.l_names;
  a

(* ------------------------------------------------------------------ *)
(* resolved lookups (request path) *)

let[@inline] resolved (rf : rfunc) (id : int) : resolved =
  if id >= 0 && id < Array.length rf.rf_sites then Array.unsafe_get rf.rf_sites id
  else Unplanned

let[@inline] barrier (rf : rfunc) (id : int) : bool =
  id >= 0 && id < Array.length rf.rf_barrier && Array.unsafe_get rf.rf_barrier id

let presence (rf : rfunc) (id : int) : Color.t list =
  if id >= 0 && id < Array.length rf.rf_presence then rf.rf_presence.(id) else []

(* [chunk_for] over the resolved chunks *)
let chunk (rf : rfunc) (c : Color.t) : chunk option =
  let target = if rf.rf_pure then Color.Free else c in
  let rec find = function
    | ch :: rest -> if Color.equal ch.ch_color target then Some ch else find rest
    | [] -> None
  in
  find rf.rf_chunks

let entry t name = Hashtbl.find_opt t.entries name

(* The record of [pf] for participants [parts]. Every set a request can
   produce is resolved at create; any other (a forged spawn's) is built
   on the side, leaving the shared records untouched. *)
let shape t (pf : Plan.pfunc) (parts : Color.t list) : rfunc =
  match Hashtbl.find_opt t.shapes (pf.Plan.pf_key, parts) with
  | Some rf -> rf
  | None -> resolve_into t.plan t.link (Hashtbl.copy t.shapes) pf parts

(* The record an indirect call into defined function [name] runs, when
   the calling worker has color [color]. *)
let indirect t name ~(color : Color.t) : rfunc option =
  match Hashtbl.find_opt t.indirect name with
  | Some rf when rf.rf_pure -> Some (shape t rf.rf_pf [ color ])
  | r -> r

let records t = Hashtbl.fold (fun _ rf acc -> rf :: acc) t.shapes []

(* Run a resolved chunk: its linked code when it has one, else whatever
   the executor runs for the function (the walker, or the image's own
   lookup). Both keep [current_func] as [Exec.exec_func] does. *)
let run_chunk (ex : Exec.t) (ch : chunk) (args : Rvalue.t array) : Rvalue.t =
  match ch.ch_code with
  | None -> Exec.exec_func ex ch.ch_func args
  | Some code ->
    let saved = ex.Exec.current_func in
    ex.Exec.current_func <- ch.ch_func.Func.name;
    let r = Image.run_code ex code args in
    ex.Exec.current_func <- saved;
    r

(* ------------------------------------------------------------------ *)
(* sequence agreement *)

let fresh_seq t = Atomic.fetch_and_add t.seq_counter 1 + 1

(* Per-(activation, participant) occurrence counters, keyed by instruction
   id. A chunk has few call sites, so an association list is enough. *)
type counts = { mutable occ : (int * int ref) list }

let counts () = { occ = [] }

let next c instr =
  let rec go = function
    | (i, r) :: _ when i = instr ->
      let n = !r in
      incr r;
      n
    | _ :: rest -> go rest
    | [] ->
      c.occ <- (instr, ref 1) :: c.occ;
      0
  in
  go c.occ

(* The child activation for the next execution of call site [instr] by
   one participant of parent activation [seq]. All [takers] participants
   of the site get the same activation without communicating, because
   they all execute the replicated call site the same number of times:
   the first to arrive creates it with [make] on a fresh sequence number
   and leaves a rendezvous entry; the last to arrive removes the entry.
   A single-participant site never touches the table. *)
let child t ~(calls : counts) ~(root : int) ~(seq : int) ~(instr : int)
    ~(takers : int) (make : int -> 'a) : 'a =
  let n = next calls instr in
  if takers <= 1 then make (fresh_seq t)
  else
    let key = (seq, instr, n) in
    locked t (fun () ->
        match Site.find_opt t.rendezvous key with
        | Some r ->
          r.r_left <- r.r_left - 1;
          if r.r_left = 0 then Site.remove t.rendezvous key;
          r.r_act
        | None ->
          let a = make (fresh_seq t) in
          Site.replace t.rendezvous key
            { r_act = a; r_root = root; r_left = takers - 1 };
          a)

(* Drop the entries of a finished request. Only a participant that never
   reached its site (it trapped first, or was never started) leaves one
   behind. *)
let release t ~(root : int) =
  locked t (fun () ->
      if Site.length t.rendezvous > 0 then
        Site.filter_map_inplace
          (fun _ r -> if r.r_root = root then None else Some r)
          t.rendezvous)

let pending t = locked t (fun () -> Site.length t.rendezvous)

(* ------------------------------------------------------------------ *)
(* external dispatch (identical under both backends) *)

(* Execute a call to an undefined function on executor [ex], running as
   partition [color] inside caller instance function [caller]. Handles the
   §7.2 allocation special cases (multicolor structs go to unsafe memory
   with their colored fields split by Layout; [alloc_node2]) and charges
   the syscall cost before delegating to {!Externals.dispatch}.
   @raise Exec.Trap on an unknown external. *)
let code_extern = Privagic_obs.Ev.(code Extern)

let dispatch_extern t (ex : Exec.t) ~(color : Color.t) ~(caller : string)
    (i : Instr.t) callee (args : Rvalue.t array) : Rvalue.t =
  ex.Exec.externs <- ex.Exec.externs + 1;
  (match callee with
  | "declassify" | "declassify_i64" ->
    let key = Color.to_string color in
    (match Hashtbl.find_opt ex.Exec.declass key with
    | Some r -> incr r
    | None -> Hashtbl.add ex.Exec.declass key (ref 1))
  | _ -> ());
  (match ex.Exec.obs_ring with
  | None -> ()
  | Some r ->
    Privagic_obs.Ring.record_now r ~code:code_extern
      ~arg:(Externals.syscall_weight callee));
  let malloc_zone = zone_of_color color in
  let zone_for (sty : Ty.t) =
    match sty.Ty.desc with
    | Ty.Struct name
      when (Layout.struct_layout ex.Exec.layout name).Layout.ls_multicolor ->
      Heap.Unsafe
    | _ -> malloc_zone
  in
  let tagged =
    match i.Instr.op with
    | Instr.Call ("malloc", _) -> Hashtbl.find_opt t.sites (caller, i.Instr.id)
    | _ -> None
  in
  match tagged with
  | Some sty ->
    (* §7.2: a multi-color structure lives in unsafe memory, its colored
       fields in their enclaves (Layout does the split) *)
    Rvalue.Ptr (Layout.alloc ex.Exec.layout ex.Exec.heap (zone_for sty) sty)
  | None -> (
    match Exec.alloc_node2 ex ~zone_for i with
    | Some r -> r
    | None -> (
      for _ = 1 to Externals.syscall_weight callee do
        Exec.charge ex
          (Sgx.Machine.syscall_cost ex.Exec.machine ~zone:ex.Exec.cpu)
      done;
      match Externals.dispatch ex ~malloc_zone callee args with
      | Some r -> r
      | None -> raise (Exec.Trap ("unknown external @" ^ callee))))
