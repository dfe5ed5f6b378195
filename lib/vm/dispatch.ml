(* Backend-agnostic dispatch math for executing a partition plan.

   Both interpreters of a plan — the virtual-time simulator (Pinterp) and
   the real-parallel backend (Privagic_parallel.Parallel) — make the same
   decisions from the same plan: which chunk a participant runs, who leads
   a call site, who must receive the return value, which child activation
   the participants of a call site share. This module holds those
   decisions so the two backends cannot drift; the backends keep only what
   genuinely differs (virtual clocks and fibers vs. domains and queues).

   Everything here is exception-free: lookups return options and each
   backend wraps misses in its own error type. The only exception that may
   escape is [Exec.Trap] from {!dispatch_extern} (unknown external), which
   both backends already treat as a program trap.

   All derived plan math (site presence, per-chunk register-use sets,
   allocation sites) is computed eagerly at [create] into immutable
   tables, so parallel workers share one instance with no locking.

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
   parent activation [seq]. [seq] already names the function. *)
module Site = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((s, i, n) : t) (s', i', n') = s = s' && i = i' && n = n'
  let hash = Hashtbl.hash
end)

type 'a rendezvous = {
  r_act : 'a;         (* the child activation every participant uses *)
  r_root : int;       (* the request it belongs to *)
  mutable r_left : int; (* participants that have not taken it yet *)
}

type 'a t = {
  plan : Plan.t;
  sites : (string * int, Ty.t) Hashtbl.t; (* multicolor alloc sites *)
  site_presence : (Infer.instance_key * int, Color.t list) Hashtbl.t;
      (* read-only after create: (pfunc, instr id) -> chunk colors *)
  chunk_uses : (string, (Func.t * (int, unit) Hashtbl.t) list) Hashtbl.t;
      (* read-only after create: registers each chunk reads, keyed by
         name and disambiguated by physical function identity *)
  seq_counter : int Atomic.t;
  rendezvous : 'a rendezvous Site.t;
  mu : Mutex.t; (* rendezvous table only *)
}

(* Registers read by some kept instruction or terminator of [chunk] — the
   eager form of Plan.chunk_uses. *)
let used_regs (chunk : Func.t) : (int, unit) Hashtbl.t =
  let set = Hashtbl.create 32 in
  Func.iter_instrs chunk (fun _ i ->
      List.iter (fun r -> Hashtbl.replace set r ()) (Instr.uses i));
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun r -> Hashtbl.replace set r ())
        (Instr.term_uses b.Block.term))
    chunk.Func.blocks;
  set

let create ?sites (plan : Plan.t) : 'a t =
  let site_presence = Hashtbl.create 64 in
  let chunk_uses = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (pf : Plan.pfunc) ->
      (* per-chunk instruction-id sets, then presence per known id *)
      let id_sets =
        List.map
          (fun (ci : Plan.chunk_info) ->
            let ids = Hashtbl.create 64 in
            Func.iter_instrs ci.Plan.ci_func (fun _ i ->
                Hashtbl.replace ids i.Instr.id ());
            (ci, ids))
          pf.Plan.pf_chunks
      in
      let all_ids = Hashtbl.create 64 in
      List.iter
        (fun (_, ids) ->
          Hashtbl.iter (fun id () -> Hashtbl.replace all_ids id ()) ids)
        id_sets;
      Hashtbl.iter
        (fun id () ->
          let colors =
            List.filter_map
              (fun ((ci : Plan.chunk_info), ids) ->
                if Hashtbl.mem ids id then Some ci.Plan.ci_color else None)
              id_sets
          in
          Hashtbl.replace site_presence (pf.Plan.pf_key, id) colors)
        all_ids;
      List.iter
        (fun (ci : Plan.chunk_info) ->
          let f = ci.Plan.ci_func in
          let bucket =
            match Hashtbl.find_opt chunk_uses f.Func.name with
            | Some l -> l
            | None -> []
          in
          if not (List.exists (fun (g, _) -> g == f) bucket) then
            Hashtbl.replace chunk_uses f.Func.name
              ((f, used_regs f) :: bucket))
        pf.Plan.pf_chunks)
    plan.Plan.pfuncs;
  {
    plan;
    sites =
      (match sites with
      | Some s -> s
      | None -> Exec.alloc_sites plan.Plan.pmodule);
    site_presence;
    chunk_uses;
    seq_counter = Atomic.make 0;
    rendezvous = Site.create 64;
    mu = Mutex.create ();
  }

let[@inline] locked t f = Mutex.protect t.mu f

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
(* plan lookups *)

let find_pfunc t key = Plan.find_pfunc t.plan key

(* The chunk a participant of color [c] executes for [pf]: its own chunk,
   or the single Free chunk of a pure-F (replicated) function. *)
let chunk_for (pf : Plan.pfunc) (c : Color.t) : Func.t option =
  let target = if pf.Plan.pf_colorset = [] then Color.Free else c in
  match Plan.find_chunk pf target with
  | Some ci -> Some ci.Plan.ci_func
  | None -> None

let find_entry (plan : Plan.t) name : Plan.entry_plan option =
  List.find_opt
    (fun (e : Plan.entry_plan) -> String.equal e.Plan.ep_name name)
    plan.Plan.entries

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
   of a call site within a non-pure-F caller. Precomputed at create. *)
let site_presence t (pf : Plan.pfunc) (id : int) : Color.t list =
  match Hashtbl.find_opt t.site_presence (pf.Plan.pf_key, id) with
  | Some l -> l
  | None -> []

(* Does chunk [f] read register [r]? (return-value need) Precomputed at
   create for every chunk of the plan; other functions fall back to the
   direct scan. *)
let chunk_needs t (f : Func.t) (r : int) : bool =
  let bucket =
    match Hashtbl.find_opt t.chunk_uses f.Func.name with
    | Some l -> l
    | None -> []
  in
  match List.find_opt (fun (g, _) -> g == f) bucket with
  | Some (_, set) -> Hashtbl.mem set r
  | None -> Plan.chunk_uses f r

(* §7.3.3: does this instruction carry a synchronization barrier here? *)
let barrier_at (pf : Plan.pfunc) (id : int) ~(participants : Color.t list) :
    bool =
  Hashtbl.mem pf.Plan.pf_barriers id && List.length participants > 1

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
(* call-site layout (§7.3.2) *)

type site = {
  s_leader : Color.t;        (* starts the missing chunks *)
  s_inter : Color.t list;    (* callee colors already at the site *)
  s_spawned : Color.t list;  (* callee colors that must be spawned *)
  s_ret_sender : Color.t option; (* who sends the return value *)
}

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
let ret_needers t ~(caller_pf : Plan.pfunc) ~(p_site : Color.t list)
    ~(callee_cs : Color.t list) (i : Instr.t) : Color.t list =
  match Instr.defines i with
  | None -> []
  | Some id ->
    List.filter
      (fun d ->
        (not (List.mem d callee_cs))
        &&
        match chunk_for caller_pf d with
        | Some f -> chunk_needs t f id
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
(* external dispatch (identical under both backends) *)

(* Execute a call to an undefined function on executor [ex], running as
   partition [color] inside caller instance function [caller]. Handles the
   §7.2 allocation special cases (multicolor structs go to unsafe memory
   with their colored fields split by Layout; [alloc_node2]) and charges
   the syscall cost before delegating to {!Externals.dispatch}.
   @raise Exec.Trap on an unknown external. *)
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
    Privagic_obs.Ring.record_now r ~code:Privagic_obs.Ring.code_extern
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
