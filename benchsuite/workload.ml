(* The program process of one workload: it builds the memcached program
   (compile, check, plan, image), hosts its servers or its parallel
   backend, drives it through the client process or driver threads, and
   checks the outputs. All timing is done here and in the client, around
   calls into the layers' public functions. *)

module Server = Privagic_server.Server
module Protocol = Privagic_server.Protocol
module Repl = Privagic_replication
module Txn = Privagic_txn.Txn
module Parallel = Privagic_parallel.Parallel
module Ycsb = Privagic_workloads.Ycsb
module Sgx = Privagic_sgx
module Lane = Privagic_obs.Lane
open Privagic_vm

let vsize = 32
let nbuckets = 1024
let scan_len = 16

type backend = Sim | Par

type t = {
  name : string;
  backend : backend;
  shards : int;
  replica : bool;  (* a sync replica is attached to the primary *)
  records : int;
  capacity : int;  (* mc_init capacity of each store *)
  mix : string;  (* YCSB a, b or e *)
  depth : int;  (* requests in flight per connection *)
  warmup : int;  (* unmeasured operations after the preload *)
}

(* Why each workload exists is in README.md. Sizes are per the program's
   own cache: kv-read's key space is twice the capacity of its stores,
   the others fit. *)
let all =
  let kv_read =
    { name = "kv-read"; backend = Sim; shards = 2; replica = false;
      records = 4096; capacity = 1024; mix = "b"; depth = 8;
      warmup = 20_000 }
  in
  [ kv_read;
    { name = "kv-write-sync"; backend = Sim; shards = 2; replica = true;
      records = 1024; capacity = 2048; mix = "a"; depth = 4;
      warmup = 2_000 };
    { name = "kv-scan"; backend = Sim; shards = 2; replica = false;
      records = 32_768; capacity = 65_536; mix = "e"; depth = 8;
      warmup = 5_000 };
    { name = "vm-parallel"; backend = Par; shards = 1; replica = false;
      records = 1024; capacity = 2048; mix = "b"; depth = 1;
      warmup = 2_000 } ]

(* --smoke: the same code paths at tiny sizes *)
let smoke w =
  { w with records = max 64 (w.records / 16); capacity = max 64 (w.capacity / 16);
    warmup = max 100 (w.warmup / 20) }

type fault = No_fault | Corrupt_get | Scan_leak | Replica_corrupt

let fault_of_string = function
  | "none" -> No_fault
  | "corrupt-get" -> Corrupt_get
  | "scan-leak" -> Scan_leak
  | "replica-corrupt" -> Replica_corrupt
  | s -> invalid_arg ("unknown fault " ^ s)

type opts = { seed : int; seconds : float; trace : bool; smoke : bool; fault : fault }

(* A planted fault triggers once, in the measured phase. *)
let armed = Atomic.make false
let fire () = Atomic.compare_and_set armed true false

(* ------------------------------------------------------------------ *)
(* one measured slice, as the client or the drivers saw it *)

type slice = {
  attempted : int;
  completed : int;
  failed : int;
  wall : float;
  client_cpu : float;  (* client process CPU, or driver time outside calls *)
  stats : (string * float) list;  (* Samples.summarize *)
  problem : string;
}

let stat s k = try List.assoc k s.stats with Not_found -> 0.0

(* The set-up steps, in seconds. *)
type setup = {
  compile : float;
  infer : float;
  plan : float;
  image : float;
  start : float;
  preload : float;
  warm : float;
  total : float;
}

let setup_fields s =
  [ ("compile", s.compile); ("infer", s.infer); ("plan", s.plan); ("image", s.image);
    ("start", s.start); ("preload", s.preload); ("warm", s.warm); ("total", s.total) ]

let setup_of_fields f =
  let g k = List.assoc k f in
  { compile = g "compile"; infer = g "infer"; plan = g "plan"; image = g "image";
    start = g "start"; preload = g "preload"; warm = g "warm"; total = g "total" }

(* What a workload's set-up hands back. [counters] are cumulative and
   read between slices; [finish] returns the problems the final checks
   found; [close] stops what would otherwise keep running. *)
type rig = {
  run_slice : seed:int -> seconds:float -> slice;
  counters : unit -> (string * float) list;
  finish : unit -> string list;
  close : unit -> unit;
  value_color : string;
}

(* ------------------------------------------------------------------ *)
(* the client process *)

let client_cfg w ~port ~seed ~phase ~secret =
  { Client.port; conns = 2; depth = w.depth; mix = w.mix; records = w.records;
    vsize; seed; scan_len; secret; expect_hits = w.capacity * w.shards >= w.records; phase }

(* Run this executable with [args] as a child process and return its
   standard output, split into lines. *)
let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("the " ^ List.hd args ^ " process failed"));
  String.split_on_char '\n' out

(* The "k=v" fields of the output line that starts with [tag]. *)
let fields tag lines =
  match List.find_opt (String.starts_with ~prefix:(tag ^ " ")) lines with
  | None -> failwith ("no " ^ tag ^ " line from the child")
  | Some l ->
    List.filter_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> Some (k, float_of_string v)
        | _ -> None)
      (String.split_on_char ' ' l)

let run_client cfg =
  let lines = child ("client" :: Client.to_args cfg) in
  let stats = fields "RESULT" lines in
  let f k = try List.assoc k stats with Not_found -> failwith ("client: no " ^ k) in
  let n k = int_of_float (f k) in
  let problem =
    match List.find_opt (String.starts_with ~prefix:"PROBLEM ") lines with
    | Some l -> String.sub l 8 (String.length l - 8)
    | None -> ""
  in
  { attempted = n "attempted"; completed = n "completed";
    failed = n "errors" + n "wrong" + n "busy"; wall = f "wall"; client_cpu = f "cpu";
    stats; problem }

(* ------------------------------------------------------------------ *)
(* set-up *)

let mode = Privagic_secure.Mode.Hardened

(* Time [f] as a set-up span; returns its result and its seconds. *)
let step tr name f =
  let t0 = Samples.now () in
  let r = Spans.span tr name f in
  (r, Samples.now () -. t0)

let build_plan tr =
  let src = Privagic_workloads.Programs.memcached ~nbuckets ~vsize `Colored in
  let m, compile =
    step tr "minic.compile" (fun () -> Privagic_minic.Driver.compile ~file:"memcached.mc" src)
  in
  let infer, infer_s =
    step tr "secure.infer" (fun () ->
        let i = Privagic_secure.Infer.run ~mode m in
        if not (Privagic_secure.Infer.ok i) then failwith "memcached rejected by the checker";
        i)
  in
  let plan, plan_s =
    step tr "partition.plan" (fun () ->
        let p = Privagic_partition.Plan.build ~mode infer in
        if p.Privagic_partition.Plan.diagnostics <> [] then failwith "partitioning rejected";
        p)
  in
  (plan, compile, infer_s, plan_s)

let init_store (st : Server.store) capacity =
  match st.Server.st_call "mc_init" [ Rvalue.Int (Int64.of_int capacity) ] with
  | Ok _ -> ()
  | Error m -> failwith ("mc_init: " ^ m)

(* Per-shard counters the store wrapper keeps while tracing. *)
type shard_obs = { tr : Spans.track; mutable gets : int; mutable hits : int }

(* The store a shard owns, wrapped so that each call is a span on the
   shard's track when tracing is on; the wrapper is also where the
   corrupt-get fault is planted. *)
let wrap_store ~fault ~get (ob : shard_obs) (st : Server.store) =
  let call name args =
    let r =
      if Atomic.get Spans.on then begin
        let r = Spans.span ob.tr name (fun () -> st.Server.st_call name args) in
        if name = get then begin
          ob.gets <- ob.gets + 1;
          match r with Ok v when Rvalue.truthy v -> ob.hits <- ob.hits + 1 | _ -> ()
        end;
        r
      end
      else st.Server.st_call name args
    in
    (match (r, args) with
    | Ok v, [ _; Rvalue.Ptr obuf ]
      when fault = Corrupt_get && name = get && Rvalue.truthy v && fire () ->
      st.Server.st_write obuf "\xff"
    | _ -> ());
    r
  in
  { st with Server.st_call = call }

(* Read a key through a store handle: [None] on a miss. *)
let read_key (st : Server.store) ~get obuf k =
  match st.Server.st_call get [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ] with
  | Ok v when Rvalue.truthy v -> Some (st.Server.st_read obuf vsize)
  | Ok _ -> None
  | Error m -> Some ("error: " ^ m)

let machine_counters pis =
  Array.fold_left
    (fun (x, l, e) p ->
      let c = Sgx.Machine.counters (Pinterp.machine p) in
      ( x + c.Sgx.Machine.queue_msgs + c.Sgx.Machine.ecalls + c.Sgx.Machine.switchless_calls,
        l + c.Sgx.Machine.llc_misses,
        e + c.Sgx.Machine.epc_faults ))
    (0, 0, 0) pis

let served w opts =
  let tr = Spans.track "setup" in
  let t0 = Samples.now () in
  let plan, compile, infer, plan_s = build_plan tr in
  let engine = Exec.default_engine () in
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let secret = bnd.Server.b_vcolor <> "U" in
  (* the scan-leak fault tells the server its values are uncolored, so
     the index keeps their bytes and scans return them *)
  let bnd = if opts.fault = Scan_leak then { bnd with Server.b_vcolor = "U" } else bnd in
  let get = bnd.Server.b_get in
  let (pis, rpi), image =
    step tr "vm.image" (fun () ->
        ( Array.init w.shards (fun _ -> Pinterp.create ~engine plan),
          if w.replica then Some (Pinterp.create ~engine plan) else None ))
  in
  let obs =
    Array.init w.shards (fun i ->
        { tr = Spans.track (Printf.sprintf "shard %d" i); gets = 0; hits = 0 })
  in
  let base = Array.map Server.store_of_pinterp pis in
  let cfg = { Server.default_config with Server.port = 0; shards = w.shards; max_batch = 32; vsize } in
  let apply_tr = Spans.track "replica apply" in
  let (srv, replica), start =
    step tr "server.start" (fun () ->
        Array.iter (fun st -> init_store st w.capacity) base;
        let srv =
          Server.start cfg bnd (Array.mapi (fun i st -> wrap_store ~fault:opts.fault ~get obs.(i) st) base)
        in
        let replica =
          Option.map
            (fun rpi ->
              let rst = Server.store_of_pinterp rpi in
              init_store rst w.capacity;
              let port = Server.port srv in
              let rsrv =
                Server.start ~replica_of:(Printf.sprintf "127.0.0.1:%d" port)
                  { cfg with Server.shards = 1 } bnd [| rst |]
              in
              (* the replica-corrupt fault flips a byte of every write
                 the replica applies to one key *)
              let bad_key = ref (-1) in
              let apply (d : Repl.Delta.t) =
                let seq = d.Repl.Delta.seq in
                let go () =
                  match d.Repl.Delta.op with
                  | Repl.Delta.Put { key; payload; _ } ->
                    if opts.fault = Replica_corrupt && fire () then bad_key := key;
                    let payload =
                      if key = !bad_key then "\xff" ^ String.sub payload 1 (String.length payload - 1)
                      else payload
                    in
                    Server.apply_put rsrv ~seq ~key ~payload
                  | Repl.Delta.Del { key } -> Server.apply_del rsrv ~seq ~key
                in
                if Atomic.get Spans.on then Spans.span apply_tr "replica.apply" go else go ()
              in
              let client =
                Repl.Replica.start ~sync:true ~on_lost:ignore ~host:"127.0.0.1" ~port ~apply ()
              in
              let hub = Server.repl_hub srv in
              let deadline = Samples.now () +. 30.0 in
              while Repl.Shipper.sync_connected hub < 1 do
                if Samples.now () > deadline then failwith "the replica never attached";
                Unix.sleepf 0.001
              done;
              (rsrv, client, rst))
            rpi
        in
        (srv, replica))
  in
  let port = Server.port srv in
  let setup_client phase seed =
    let s = run_client (client_cfg w ~port ~seed ~phase ~secret) in
    if s.failed > 0 then failwith ("set-up replies wrong: " ^ s.problem)
  in
  let (), preload = step tr "setup.preload" (fun () -> setup_client Client.Preload opts.seed) in
  let (), warm =
    step tr "setup.warmup" (fun () -> setup_client (Client.Ops w.warmup) (opts.seed + 1_000_003))
  in
  let total = Samples.now () -. t0 in
  let trs = Array.to_list (Array.map (fun o -> o.tr) obs) in
  let counters () =
    let s = Server.stats srv in
    let steps = Array.fold_left (fun a p -> a + p.Pinterp.exec.Exec.steps) 0 pis in
    let crossings, llc, epc = machine_counters pis in
    let fi = float_of_int in
    [ ("prog_cpu", Samples.cpu_seconds ()); ("steps", fi steps);
      ("crossings", fi crossings); ("llc_misses", fi llc);
      ("epc_faults", fi epc); ("batches", fi s.Server.s_batches);
      ("coalesced", fi s.Server.s_coalesced); ("gets", fi s.Server.s_gets);
      ("writes", fi (s.Server.s_sets + s.Server.s_dels)); ("ops", fi s.Server.s_ops);
      ("xshard", fi s.Server.s_xshard); ("scans", fi s.Server.s_scans);
      ("scan_items", fi s.Server.s_scan_items);
      ("log_head", fi (Repl.Log.head (Server.repl_log srv)));
      ("vm_calls", fi (Spans.calls trs)); ("vm_busy", Spans.busy trs);
      ("vm_gets", fi (Array.fold_left (fun a o -> a + o.gets) 0 obs));
      ("vm_hits", fi (Array.fold_left (fun a o -> a + o.hits) 0 obs));
      ("apply_busy", apply_tr.Spans.busy) ]
  in
  let run_slice ~seed ~seconds =
    run_client (client_cfg w ~port ~seed ~phase:(Client.Timed seconds) ~secret)
  in
  (* The servers are left serving: draining an idle server waits out a
     5 s select timeout, and the process exit ends them anyway. With a
     sync replica every acknowledged write is already applied, so the
     stores can be compared while both servers sit idle. *)
  let finish () =
    let timeouts = (Server.stats srv).Server.s_fence_timeouts in
    let problems = if timeouts > 0 then [ Printf.sprintf "%d sync fences timed out" timeouts ] else [] in
    match replica with
    | None -> problems
    | Some (_, client, rst) ->
      let hub = Server.repl_hub srv in
      let head = Repl.Log.head (Server.repl_log srv) in
      let deadline = Samples.now () +. 10.0 in
      while Repl.Replica.applied_seq client < head && Samples.now () < deadline do
        Unix.sleepf 0.001
      done;
      let applied = Repl.Replica.applied_seq client in
      let shipped = Repl.Shipper.shipped hub and sealed = Repl.Shipper.sealed_count hub in
      let robuf = rst.Server.st_alloc vsize in
      let pobufs = Array.map (fun (st : Server.store) -> st.Server.st_alloc vsize) base in
      let diverged =
        List.filter
          (fun k ->
            let p = read_key base.(k mod w.shards) ~get pobufs.(k mod w.shards) k in
            p <> Some (Ycsb.value_for ~size:vsize k) || read_key rst ~get robuf k <> p)
          (List.init w.records Fun.id)
      in
      problems
      @ (if applied <> head then [ Printf.sprintf "replica applied seq %d, primary head %d" applied head ] else [])
      @ (if sealed <> shipped then [ Printf.sprintf "sealed %d of %d shipped deltas" sealed shipped ] else [])
      @
      match diverged with
      | [] -> []
      | k :: _ -> [ Printf.sprintf "%d keys differ between primary and replica (first: %d)" (List.length diverged) k ]
  in
  ( { run_slice; counters; finish; close = ignore; value_color = bnd.Server.b_vcolor },
    { compile; infer; plan = plan_s; image; start; preload; warm; total } )

(* ------------------------------------------------------------------ *)
(* the parallel backend, driven without sockets *)

type driver = {
  id : int;
  vbuf : int;
  obuf : int;
  dtr : Spans.track;
  mutable d_gets : int;
  mutable d_hits : int;
}

(* What one driver thread saw. *)
type driven = {
  dr_reads : Samples.t;
  dr_writes : Samples.t;
  dr_late : Samples.t;
  mutable dr_attempted : int;
  mutable dr_failed : int;
  mutable dr_problem : string;
  mutable dr_inside : float;  (* seconds inside entry calls *)
}

let drivers = 2

let parallel w opts =
  let tr = Spans.track "setup" in
  let t0 = Samples.now () in
  let plan, compile, infer, plan_s = build_plan tr in
  let p, image =
    step tr "vm.image" (fun () -> Parallel.create ~lanes:1 ~engine:(Exec.default_engine ()) plan)
  in
  let heap = (Parallel.exec p).Exec.heap in
  let ds =
    Array.init drivers (fun id ->
        { id; vbuf = Heap.alloc heap Heap.Unsafe vsize; obuf = Heap.alloc heap Heap.Unsafe vsize;
          dtr = Spans.track (Printf.sprintf "driver %d" id); d_gets = 0; d_hits = 0 })
  in
  let call d name args =
    let go () = (Parallel.call_entry p ~thread:d.id name args).Parallel.value in
    if Atomic.get Spans.on then Spans.span d.dtr name go else go ()
  in
  let set d k =
    String.iteri
      (fun i c -> Heap.store heap (d.vbuf + i) 1 (Int64.of_int (Char.code c)))
      (Ycsb.value_for ~size:vsize k);
    ignore (call d "mc_set" [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr d.vbuf ])
  in
  (* [Some problem] when the get did not return the key's bytes *)
  let get d k =
    let v = call d "mc_get" [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr d.obuf ] in
    let hit = Rvalue.truthy v in
    if Atomic.get Spans.on then begin
      d.d_gets <- d.d_gets + 1;
      if hit then d.d_hits <- d.d_hits + 1
    end;
    if hit && opts.fault = Corrupt_get && fire () then Heap.store heap d.obuf 1 0xffL;
    if not hit then Some (Printf.sprintf "get %d missed" k)
    else
      let b = String.init vsize (fun i -> Char.chr (Int64.to_int (Heap.load heap (d.obuf + i) 1) land 0xff)) in
      if b <> Ycsb.value_for ~size:vsize k then Some (Printf.sprintf "get %d returned wrong bytes" k)
      else None
  in
  (* Run [drivers] threads of the YCSB mix until [ops] operations each or
     [stop_at]; every call is timed from outside. *)
  let run_drivers ~seed ~ops ~stop_at =
    let spec i =
      Ycsb.workload_b ~seed:(seed + (i * 1_000_003)) ~record_count:w.records
        ~operation_count:max_int ~value_size:vsize ()
    in
    let res =
      Array.init drivers (fun _ ->
          { dr_reads = Samples.create (); dr_writes = Samples.create ();
            dr_late = Samples.create (); dr_attempted = 0; dr_failed = 0;
            dr_problem = ""; dr_inside = 0.0 })
    in
    let drive (d, r) =
      let gen = Ycsb.create (spec d.id) in
      let freed = ref (Samples.now ()) in
      while r.dr_attempted < ops && Samples.now () < stop_at do
        r.dr_attempted <- r.dr_attempted + 1;
        let t0 = Samples.now () in
        Samples.add r.dr_late ((t0 -. !freed) *. 1e6);
        let is_read, outcome =
          match Ycsb.next_op gen with
          | Ycsb.Read k | Ycsb.Scan (k, _) -> (true, get d k)
          | Ycsb.Update k | Ycsb.Insert k | Ycsb.Rmw k -> (false, (set d k; None))
          | exception Parallel.Error m -> (true, Some m)
        in
        let t1 = Samples.now () in
        freed := t1;
        r.dr_inside <- r.dr_inside +. (t1 -. t0);
        Samples.add (if is_read then r.dr_reads else r.dr_writes) ((t1 -. t0) *. 1e6);
        match outcome with
        | None -> ()
        | Some m ->
          r.dr_failed <- r.dr_failed + 1;
          if r.dr_problem = "" then r.dr_problem <- m
      done
    in
    let t0 = Samples.now () in
    let ths = Array.mapi (fun i d -> Thread.create drive (d, res.(i))) ds in
    Array.iter Thread.join ths;
    let wall = Samples.now () -. t0 in
    let merge f = Samples.concat (Array.to_list (Array.map f res)) in
    let sum f = Array.fold_left (fun a r -> a + f r) 0 res in
    let attempted = sum (fun r -> r.dr_attempted) and failed = sum (fun r -> r.dr_failed) in
    { attempted; completed = attempted - failed; failed; wall;
      client_cpu = Array.fold_left (fun a r -> a +. wall -. r.dr_inside) 0.0 res;
      stats =
        Samples.summarize ~reads:(merge (fun r -> r.dr_reads)) ~writes:(merge (fun r -> r.dr_writes))
          ~late:(merge (fun r -> r.dr_late));
      problem = Array.fold_left (fun a r -> if a = "" then r.dr_problem else a) "" res }
  in
  let (), start =
    step tr "server.start" (fun () -> ignore (call ds.(0) "mc_init" [ Rvalue.Int (Int64.of_int w.capacity) ]))
  in
  let (), preload = step tr "setup.preload" (fun () -> for k = 0 to w.records - 1 do set ds.(0) k done) in
  let (), warm =
    step tr "setup.warmup" (fun () ->
        let s = run_drivers ~seed:(opts.seed + 1_000_003) ~ops:(w.warmup / drivers) ~stop_at:infinity in
        if s.failed > 0 then failwith ("set-up replies wrong: " ^ s.problem))
  in
  let total = Samples.now () -. t0 in
  let counters () =
    let lanes = Parallel.lane_breakdowns p in
    let phase ph =
      List.fold_left (fun a (b : Lane.breakdown) -> a + b.Lane.b_phase_us.(Privagic_obs.Phase.index ph)) 0 lanes
    in
    let fi = float_of_int in
    let dl = Array.to_list (Array.map (fun d -> d.dtr) ds) in
    [ ("prog_cpu", Samples.cpu_seconds ()); ("steps", fi (Parallel.total_steps p));
      ("vm_calls", fi (Spans.calls dl)); ("vm_busy", Spans.busy dl);
      ("vm_gets", fi (Array.fold_left (fun a d -> a + d.d_gets) 0 ds));
      ("vm_hits", fi (Array.fold_left (fun a d -> a + d.d_hits) 0 ds));
      ("lane_wall_us", fi (List.fold_left (fun a (b : Lane.breakdown) -> a + b.Lane.b_wall_us) 0 lanes));
      ("domains", fi (Parallel.domain_count p)) ]
    @ List.map (fun ph -> ("lane_" ^ Privagic_obs.Phase.name ph, fi (phase ph))) Privagic_obs.Phase.all
  in
  let run_slice ~seed ~seconds = run_drivers ~seed ~ops:max_int ~stop_at:(Samples.now () +. seconds) in
  let close () = ignore (Parallel.shutdown p) in
  ( { run_slice; counters; finish = (fun () -> []); close; value_color = Server.value_color plan },
    { compile; infer; plan = plan_s; image; start; preload; warm; total } )

(* ------------------------------------------------------------------ *)
(* replays: the workload's own inputs through one layer's functions *)

let replay_ops = 20_000

let replay_requests w ~seed =
  let next =
    Client.requests (client_cfg w ~port:0 ~seed ~phase:(Client.Ops replay_ops) ~secret:true)
  in
  Array.init replay_ops (fun _ -> fst (next ()))

(* The replies a correct server gives to [reqs]. *)
let replies ~secret reqs =
  Array.map
    (function
      | Protocol.Get k -> Protocol.Value (k, Ycsb.value_for ~size:vsize k)
      | Protocol.Scan { sc_start; sc_limit; _ } ->
        Protocol.Scan_reply
          (List.init sc_limit (fun i ->
               let k = sc_start + i in
               { Protocol.si_key = k; si_ver = 1;
                 si_val = (if secret then None else Some (Ycsb.value_for ~size:vsize k)) }))
      | _ -> Protocol.Stored)
    reqs

(* Nanoseconds per item of [f] applied to each of [n] items. *)
let per_item_ns n f =
  let t0 = Samples.now () in
  f ();
  (Samples.now () -. t0) *. 1e9 /. float_of_int n

let protocol_replay w ~seed ~secret =
  let reqs = replay_requests w ~seed in
  let wire = String.concat "" (Array.to_list (Array.map Protocol.render_request reqs)) in
  let chunk = 16_384 in
  let chunks =
    List.init ((String.length wire + chunk - 1) / chunk) (fun i ->
        Bytes.of_string (String.sub wire (i * chunk) (min chunk (String.length wire - (i * chunk)))))
  in
  let parsed = ref 0 in
  let parse_ns =
    per_item_ns replay_ops (fun () ->
        let rd = Protocol.reader () in
        List.iter (fun b -> parsed := !parsed + List.length (Protocol.feed rd b (Bytes.length b))) chunks)
  in
  if !parsed <> replay_ops then failwith "protocol replay: requests lost in parsing";
  let resps = replies ~secret reqs in
  let render_ns =
    per_item_ns replay_ops (fun () -> Array.iter (fun r -> ignore (Protocol.render r)) resps)
  in
  (parse_ns, render_ns)

(* A fresh ordered index, filled with the preload and the workload's
   writes, then scanned over the workload's reads (a point read is a
   one-item scan). *)
let txn_replay w ~seed ~color =
  let reqs = replay_requests w ~seed in
  let t = Txn.create ~value_color:color () in
  let puts =
    Array.to_list (Array.init w.records (fun k -> (k, Ycsb.value_for ~size:vsize k)))
    @ List.filter_map (function Protocol.Set (k, v) -> Some (k, v) | _ -> None) (Array.to_list reqs)
  in
  let put_us =
    per_item_ns (List.length puts) (fun () ->
        List.iter (fun (key, value) -> Txn.note_put t ~key ~value) puts)
    /. 1e3
  in
  let scans =
    List.filter_map
      (function
        | Protocol.Get k -> Some (k, k, 1)
        | Protocol.Scan { sc_start; sc_stop; sc_limit } -> Some (sc_start, sc_stop, sc_limit)
        | _ -> None)
      (Array.to_list reqs)
  in
  let scan_us =
    per_item_ns (max 1 (List.length scans)) (fun () ->
        List.iter (fun (start, stop, limit) -> ignore (Txn.scan t ~start ~stop ~limit)) scans)
    /. 1e3
  in
  (put_us, scan_us)

(* ------------------------------------------------------------------ *)
(* a run *)

type metric = { m_name : string; value : float; unit_ : string; n : int }

type outcome = {
  metrics : metric list;
  ops_attempted : int;
  ops_failed : int;
  problems : string list;
}

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Peak resident set of this process, MiB. *)
let rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

let ratio a b = if b = 0.0 then 0.0 else a /. b

let setup w opts = match w.backend with Sim -> served w opts | Par -> parallel w opts

(* One set-up and nothing else, for the median of [run]. *)
let setup_only w opts =
  let _, s = setup w opts in
  print_endline
    ("SETUP " ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.9f" k v) (setup_fields s)))

let run w opts =
  let w = if opts.smoke then smoke w else w in
  (* Set-up time is the median of three set-ups. Two of them run in
     their own processes first, so nothing they leave behind shares the
     machine or the heap with the measured phase. *)
  let extra =
    List.init (if opts.smoke then 0 else 2) (fun _ ->
        setup_of_fields (fields "SETUP" (child [ "setup"; w.name; "--seed"; string_of_int opts.seed ])))
  in
  let rig, first = setup w opts in
  Atomic.set armed (opts.fault <> No_fault);
  let slice ~traced ~seed ~seconds =
    Atomic.set Spans.on traced;
    let c0 = rig.counters () in
    let s = rig.run_slice ~seed ~seconds in
    let c1 = rig.counters () in
    Atomic.set Spans.on false;
    (s, List.map2 (fun (k, a) (_, b) -> (k, b -. a)) c0 c1)
  in
  let m ?(n = 1) m_name unit_ value = { m_name; value; unit_; n } in
  let slices, metrics =
    if not opts.trace then begin
      let ((s, _) as sl) = slice ~traced:false ~seed:opts.seed ~seconds:opts.seconds in
      ( [ sl ],
        [ m ~n:s.completed "throughput_kops" "kops/s" (float_of_int s.completed /. s.wall /. 1e3);
          m ~n:(int_of_float (stat s "reads")) "read_iqm_us" "us" (stat s "read_iqm");
          m ~n:(int_of_float (stat s "writes")) "write_iqm_us" "us" (stat s "write_iqm");
          m "rss_mb" "MiB" (rss_mb ()) ] )
    end
    else begin
      (* ABBA: untraced, traced, traced, untraced, so a drift over the run
         cancels out of the overhead *)
      let sl =
        List.mapi
          (fun i traced -> (traced, slice ~traced ~seed:(opts.seed + i) ~seconds:(opts.seconds /. 4.0)))
          [ false; true; true; false ]
      in
      let pick t = List.filter_map (fun (tr, x) -> if tr = t then Some x else None) sl in
      let traced = pick true and untraced = pick false in
      let sum f = List.fold_left (fun a (s, _) -> a +. f s) 0.0 in
      let mean f l = sum f l /. float_of_int (List.length l) in
      let thr l = ratio (sum (fun s -> float_of_int s.completed) l) (sum (fun s -> s.wall) l) in
      let delta l k = List.fold_left (fun a (_, d) -> a +. (try List.assoc k d with Not_found -> 0.0)) 0.0 l in
      let d = delta traced in
      let ops = sum (fun s -> float_of_int s.completed) traced in
      let wall = sum (fun s -> s.wall) traced in
      let n = int_of_float ops in
      let parse_ns, render_ns = protocol_replay w ~seed:opts.seed ~secret:(rig.value_color <> "U") in
      let put_us, scan_us = txn_replay w ~seed:opts.seed ~color:rig.value_color in
      let lane ph = ratio (d ("lane_" ^ ph)) (d "lane_wall_us") in
      let per_op k = ratio (d k) ops in
      let units = float_of_int (match w.backend with Sim -> w.shards | Par -> drivers) in
      ( List.map snd sl,
        [ m ~n "loadgen.cpu_frac" "fraction" (ratio (sum (fun s -> s.client_cpu) traced) wall);
          m ~n "loadgen.late_p99_us" "us" (mean (fun s -> stat s "late_p99") traced);
          (* the tails and the CPU cost are too noisy to bound on a small
             shared machine; they come from the untraced slices *)
          m ~n:(int_of_float (sum (fun s -> stat s "reads") untraced)) "loadgen.read_p99_us" "us"
            (mean (fun s -> stat s "read_p99") untraced);
          m ~n:(int_of_float (sum (fun s -> stat s "writes") untraced)) "loadgen.write_p99_us" "us"
            (mean (fun s -> stat s "write_p99") untraced);
          m ~n:(int_of_float (sum (fun s -> float_of_int s.completed) untraced)) "program.cpu_us_per_op" "us"
            (ratio (delta untraced "prog_cpu") (sum (fun s -> float_of_int s.completed) untraced) *. 1e6);
          m ~n:replay_ops "protocol.parse_ns" "ns" parse_ns;
          m ~n:replay_ops "protocol.render_ns" "ns" render_ns;
          m ~n "server.ops_per_batch" "count" (ratio (d "gets" +. d "writes") (d "batches"));
          m ~n "server.coalesced_frac" "fraction" (ratio (d "coalesced") (d "gets"));
          m ~n "server.xshard_frac" "fraction" (ratio (d "xshard") (d "ops"));
          m ~n "vm.calls_per_op" "count" (per_op "vm_calls");
          m ~n:(int_of_float (d "vm_calls")) "vm.call_us" "us" (ratio (d "vm_busy") (d "vm_calls") *. 1e6);
          m ~n "vm.busy_frac" "fraction" (ratio (d "vm_busy") (wall *. units));
          m ~n "vm.steps_per_op" "count" (per_op "steps");
          m ~n "vm.steps_per_s" "1/s" (ratio (d "steps") (d "vm_busy"));
          m ~n "vm.hit_ratio" "fraction" (ratio (d "vm_hits") (d "vm_gets"));
          m ~n "sgx.crossings_per_op" "count" (per_op "crossings");
          m ~n "sgx.llc_misses_per_op" "count" (per_op "llc_misses");
          m ~n "sgx.epc_faults_per_op" "count" (per_op "epc_faults");
          m ~n "txn.scan_items_per_scan" "count" (ratio (d "scan_items") (d "scans"));
          m ~n:replay_ops "txn.note_put_us" "us" put_us;
          m ~n:replay_ops "txn.scan_us" "us" scan_us;
          m ~n "replication.deltas_per_write" "count" (ratio (d "log_head") (d "writes"));
          m ~n "replication.apply_frac" "fraction" (ratio (d "apply_busy") wall);
          m ~n "parallel.run_frac" "fraction" (lane "run");
          m ~n "parallel.pump_wait_frac" "fraction" (lane "pump-wait");
          m ~n "parallel.queue_wait_frac" "fraction" (lane "queue-wait");
          m ~n "parallel.barrier_frac" "fraction" (lane "barrier");
          m ~n "parallel.park_frac" "fraction" (lane "park");
          m "parallel.domains" "count" (try List.assoc "domains" (rig.counters ()) with Not_found -> 0.0);
          m ~n "trace.overhead_frac" "fraction" (1.0 -. ratio (thr traced) (thr untraced)) ] )
    end
  in
  let problems =
    List.filter_map (fun (s, _) -> if s.problem = "" then None else Some s.problem) slices
    @ rig.finish ()
  in
  Atomic.set armed false;
  rig.close ();
  let sus = first :: extra in
  let reps = List.length sus in
  let med f = median (List.map f sus) in
  let setup_metrics =
    if not opts.trace then [ m ~n:reps "setup_s" "s" (med (fun s -> s.total)) ]
    else
      [ m ~n:reps "minic.compile_ms" "ms" (med (fun s -> s.compile) *. 1e3);
        m ~n:reps "secure.infer_ms" "ms" (med (fun s -> s.infer) *. 1e3);
        m ~n:reps "partition.plan_ms" "ms" (med (fun s -> s.plan) *. 1e3);
        m ~n:reps "vm.image_ms" "ms" (med (fun s -> s.image) *. 1e3);
        m ~n:reps "setup.start_ms" "ms" (med (fun s -> s.start) *. 1e3);
        m ~n:reps "setup.preload_s" "s" (med (fun s -> s.preload));
        m ~n:reps "setup.warmup_s" "s" (med (fun s -> s.warm)) ]
  in
  if opts.trace then Spans.write_chrome "bench-trace.json";
  { metrics = metrics @ setup_metrics;
    ops_attempted = List.fold_left (fun a (s, _) -> a + s.attempted) 0 slices;
    ops_failed = List.fold_left (fun a (s, _) -> a + s.failed) 0 slices;
    problems }
