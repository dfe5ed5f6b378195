(* The property-check driver: the robust-safety harness of DESIGN.md
   §8.11. For every cell of the {walk,image} × {sim,parallel} matrix it
   compiles victim programs (Progen), attacks them with seeded
   adversarial scripts (Gen), and watches the secrecy monitor
   (Monitor): an unmutated checked partition must survive every script
   with zero violations, and each planted leak mutant must be killed —
   caught by the monitor — in every cell.

   Counterexamples shrink greedily: drop one action at a time, re-run
   the whole case from a fresh VM, keep the drop if the violation
   persists. Every case is reproducible from its seed alone. *)

open Privagic_pir
open Privagic_secure
open Privagic_vm
module Plan = Privagic_partition.Plan
module Parallel = Privagic_parallel.Parallel
module Delta = Privagic_replication.Delta
module Seal = Privagic_replication.Seal
module Txn = Privagic_txn.Txn
module Index = Privagic_txn.Index
module Protocol = Privagic_server.Protocol

(* ------------------------------------------------------------------ *)
(* the matrix                                                          *)

type backend = Sim | Par

type cell = { c_engine : Exec.engine; c_backend : backend }

let all_cells =
  [
    { c_engine = Exec.Walk; c_backend = Sim };
    { c_engine = Exec.Image; c_backend = Sim };
    { c_engine = Exec.Walk; c_backend = Par };
    { c_engine = Exec.Image; c_backend = Par };
  ]

let cell_name c =
  Printf.sprintf "%s/%s"
    (match c.c_engine with Exec.Walk -> "walk" | Exec.Image -> "image")
    (match c.c_backend with Sim -> "sim" | Par -> "parallel")

(* ------------------------------------------------------------------ *)
(* victims -> plans                                                    *)

(* a diagnostic from a victim is a generator bug, not a finding *)
let plan_of (v : Progen.victim) : Plan.t =
  let m = Privagic_minic.Driver.compile ~file:v.Progen.v_name v.Progen.v_source in
  let infer = Infer.run ~mode:v.Progen.v_mode m in
  if not (Infer.ok infer) then
    failwith
      (Printf.sprintf "robust: victim %s rejected by the checker: %s"
         v.Progen.v_name
         (String.concat "; "
            (List.map Diagnostic.to_string infer.Infer.diagnostics)));
  let plan = Plan.build ~mode:v.Progen.v_mode infer in
  if plan.Plan.diagnostics <> [] then
    failwith
      (Printf.sprintf "robust: victim %s rejected by the partitioner: %s"
         v.Progen.v_name
         (String.concat "; " (List.map Diagnostic.to_string plan.Plan.diagnostics)));
  plan

(* ------------------------------------------------------------------ *)
(* backend-agnostic target                                             *)

type target = {
  t_exec : Exec.t;
  t_call : thread:int -> string -> Rvalue.t list -> (Rvalue.t, string) result;
  t_inject : color:Color.t -> chunk:string -> Rvalue.t list -> (unit, string) result;
  t_guard : bool -> unit;
  t_race : (string * Rvalue.t list) list -> unit;
  t_shutdown : unit -> unit;
}

let make_target (cell : cell) (plan : Plan.t) (mon : Monitor.t) : target =
  match cell.c_backend with
  | Sim ->
    let pt =
      Pinterp.create ~config:Privagic_sgx.Config.machine_test
        ~engine:cell.c_engine plan
    in
    Monitor.attach mon pt.Pinterp.exec;
    let call ~thread e args =
      match Pinterp.call_entry pt ~thread e args with
      | r -> Ok r.Pinterp.value
      | exception Pinterp.Error s -> Error s
      | exception Exec.Trap s -> Error s
      | exception Heap.Fault (_, s) -> Error s
    in
    {
      t_exec = pt.Pinterp.exec;
      t_call = call;
      t_inject =
        (fun ~color ~chunk args ->
          match Pinterp.inject_spawn pt ~color ~chunk args with
          | r -> r
          | exception Pinterp.Error s -> Error s
          | exception Exec.Trap s -> Error s
          | exception Heap.Fault (_, s) -> Error s);
      t_guard = Pinterp.set_spawn_guard pt;
      t_race =
        (* the simulator has no extra lanes: alternate virtual threads *)
        (fun calls ->
          List.iteri
            (fun i (e, args) -> ignore (call ~thread:(i mod 2) e args))
            calls);
      t_shutdown = (fun () -> Monitor.detach pt.Pinterp.exec);
    }
  | Par ->
    let p =
      Parallel.create ~config:Privagic_sgx.Config.machine_test ~lanes:2
        ~engine:cell.c_engine plan
    in
    (* workers clone the shared executor lazily, so attaching before the
       first call covers every domain *)
    Monitor.attach mon (Parallel.exec p);
    let call ~thread e args =
      match Parallel.call_entry p ~thread e args with
      | r -> Ok r.Parallel.value
      | exception Parallel.Error s -> Error s
      | exception Exec.Trap s -> Error s
      | exception Heap.Fault (_, s) -> Error s
    in
    {
      t_exec = Parallel.exec p;
      t_call = call;
      t_inject =
        (fun ~color ~chunk args ->
          match Parallel.inject_spawn p ~color ~chunk args with
          | r -> r
          | exception Parallel.Error s -> Error s
          | exception Exec.Trap s -> Error s
          | exception Heap.Fault (_, s) -> Error s);
      t_guard = Parallel.set_spawn_guard p;
      t_race =
        (fun calls ->
          let ths =
            List.mapi
              (fun i (e, args) ->
                Thread.create (fun () -> ignore (call ~thread:(i mod 2) e args)) ())
              calls
          in
          List.iter Thread.join ths);
      t_shutdown =
        (fun () ->
          ignore (Parallel.shutdown p : bool);
          Monitor.detach (Parallel.exec p));
    }

(* ------------------------------------------------------------------ *)
(* running one adversarial script                                      *)

type kvctx = {
  kc_put : string;
  kc_get : string;
  kc_vsize : int;
  kc_vbuf : int;  (* client staging buffer (unsafe, as a real caller's) *)
  kc_obuf : int;
  kc_txn : Txn.t;
      (* the txn/index layer over the store, carrying the store's value
         color — its scan replies and hash lookups are attack surface *)
}

type ctx = {
  x_tgt : target;
  x_mon : Monitor.t;
  x_kv : kvctx option;
  x_guard_on : bool;
  x_sentinel : int64;
}

let secret_key = 7001 (* the kv key the sentinel value is stored under *)

let setup_kv (tgt : target) (v : Progen.victim) =
  match v.Progen.v_shape with
  | Progen.Scalar _ -> None
  | Progen.Kv { put; get; vsize } ->
    let heap = tgt.t_exec.Exec.heap in
    Some
      {
        kc_put = put;
        kc_get = get;
        kc_vsize = vsize;
        kc_vbuf = Heap.alloc heap Heap.Unsafe vsize;
        kc_obuf = Heap.alloc heap Heap.Unsafe vsize;
        kc_txn = Txn.create ~value_color:v.Progen.v_secret_color ();
      }

(* the exact value bytes the sentinel plant stages: vsize zeros with the
   sentinel little-endian at offset 8 (what plant writes into vbuf) *)
let sentinel_value ~vsize sentinel =
  let b = Bytes.make vsize '\000' in
  Bytes.blit_string (Monitor.le_bytes sentinel) 0 b 8 8;
  Bytes.to_string b

let fill_buf heap addr n byte =
  let w = Int64.of_int (byte land 0xff) in
  for k = 0 to n - 1 do
    Heap.store heap (addr + k) 1 w
  done

let rv l = List.map (fun v -> Rvalue.Int v) l

(* Plant the sentinel. Scalar victims: register it first, then classify
   it through the plant entry — with the vault correctly colored the
   store lands in the enclave zone and the monitor stays silent; the
   miscolor mutant turns this exact store into the leak. Kv victims:
   the sentinel must transit the client's unsafe staging buffer (that
   is ingress plaintext, not a leak), so stage, put, wipe, and only
   then register it with the monitor. *)
let plant (x : ctx) (v : Progen.victim) sentinel =
  match (v.Progen.v_shape, x.x_kv) with
  | Progen.Scalar { plant_entry; _ }, _ -> (
    Monitor.plant x.x_mon sentinel;
    match x.x_tgt.t_call ~thread:0 plant_entry [ Rvalue.Int sentinel ] with
    | Ok _ -> ()
    | Error e -> failwith ("robust: planting the sentinel failed: " ^ e))
  | Progen.Kv _, Some k -> (
    let heap = x.x_tgt.t_exec.Exec.heap in
    fill_buf heap k.kc_vbuf k.kc_vsize 0;
    Heap.store heap k.kc_vbuf 8 sentinel;
    (match
       x.x_tgt.t_call ~thread:0 k.kc_put
         [ Rvalue.Int (Int64.of_int secret_key); Rvalue.Ptr k.kc_vbuf ]
     with
    | Ok _ -> ()
    | Error e -> failwith ("robust: planting the sentinel failed: " ^ e));
    fill_buf heap k.kc_vbuf k.kc_vsize 0;
    (* commit hook: the index entry for the secret inherits the store's
       color, so (unmutated) it caches no value bytes *)
    Txn.note_put k.kc_txn ~key:secret_key
      ~value:(sentinel_value ~vsize:k.kc_vsize sentinel);
    Monitor.plant x.x_mon sentinel)
  | Progen.Kv _, None -> assert false

let apply (x : ctx) (act : Gen.action) =
  let t = x.x_tgt and mon = x.x_mon in
  let heap = t.t_exec.Exec.heap in
  match act with
  | Gen.Call { entry; args } -> ignore (t.t_call ~thread:0 entry (rv args))
  | Gen.Kv_put { key; tag } -> (
    match x.x_kv with
    | None -> ()
    | Some k -> (
      fill_buf heap k.kc_vbuf k.kc_vsize tag;
      match
        t.t_call ~thread:0 k.kc_put
          [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr k.kc_vbuf ]
      with
      | Ok _ ->
        Txn.note_put k.kc_txn ~key
          ~value:(String.make k.kc_vsize (Char.chr (tag land 0xff)))
      | Error _ -> ()))
  | Gen.Kv_get { key } -> (
    match x.x_kv with
    | None -> ()
    | Some k ->
      ignore
        (t.t_call ~thread:0 k.kc_get
           [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr k.kc_obuf ]))
  | Gen.Kv_scan { start; limit } -> (
    match x.x_kv with
    | None -> ()
    | Some k ->
      (* the scan reply a server would write to the client: render it
         and hold it against the wire check — the secrecy property says
         no index path may carry the secret's bytes out *)
      let items =
        List.map
          (fun (e : Index.entry) ->
            {
              Protocol.si_key = e.Index.e_key;
              si_ver = e.Index.e_version;
              si_val = e.Index.e_value;
            })
          (Txn.scan k.kc_txn ~start ~stop:(start + (2 * limit)) ~limit)
      in
      Monitor.check_wire mon ~where:"scan-reply"
        (Protocol.render (Protocol.Scan_reply items));
      if
        Txn.lookup k.kc_txn
          ~value:(sentinel_value ~vsize:k.kc_vsize x.x_sentinel)
        <> []
      then
        Monitor.violate mon ~kind:"index" ~where:"lookup"
          "secret value bytes resolvable through the hash index")
  | Gen.Kv_txn { ops } -> (
    match x.x_kv with
    | None -> ()
    | Some k ->
      let value_of tag = String.make k.kc_vsize (Char.chr (tag land 0xff)) in
      let o_get key =
        match
          t.t_call ~thread:0 k.kc_get
            [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr k.kc_obuf ]
        with
        | Ok v when Rvalue.truthy v ->
          Ok
            (Some
               (String.init k.kc_vsize (fun i ->
                    Char.chr
                      (Int64.to_int (Heap.load heap (k.kc_obuf + i) 1)
                      land 0xff))))
        | Ok _ -> Ok None
        | Error e -> Error e
      in
      let o_set key value =
        String.iteri
          (fun i c ->
            Heap.store heap (k.kc_vbuf + i) 1 (Int64.of_int (Char.code c)))
          value;
        match
          t.t_call ~thread:0 k.kc_put
            [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr k.kc_vbuf ]
        with
        | Ok _ -> Ok ()
        | Error e -> Error e
      in
      (* the kv victims expose no delete entry: a deleted key simply
         drops from the index/version tables, so del never rejects and
         stays applicable ([o_can_del = true]) *)
      let o_del _ = Ok false in
      let ops =
        List.map
          (function
            | Gen.Tx_get key -> Txn.T_get key
            | Gen.Tx_set (key, tag) -> Txn.T_set (key, value_of tag)
            | Gen.Tx_del key -> Txn.T_del key
            | Gen.Tx_cas (key, expect, tag) ->
              Txn.T_cas (key, expect, value_of tag))
          ops
      in
      ignore
        (Txn.execute k.kc_txn
           { Txn.o_get; o_set; o_del; o_max_value = k.kc_vsize;
             o_can_del = true }
           ops
          : Txn.outcome))
  | Gen.Probe { global; off } -> (
    match Hashtbl.find_opt t.t_exec.Exec.globals global with
    | Some a -> ( try ignore (Heap.load heap (a + off) 8 : int64) with Heap.Fault _ -> ())
    | None -> ())
  | Gen.Forge { global; off; value } -> (
    match Hashtbl.find_opt t.t_exec.Exec.globals global with
    | Some a -> ( try Heap.store heap (a + off) 8 value with Heap.Fault _ -> ())
    | None -> ())
  | Gen.Replay { color; chunk; args; times } ->
    for _ = 1 to times do
      ignore (t.t_inject ~color ~chunk (rv args))
    done
  | Gen.Inject { color; chunk; args } -> (
    Monitor.set_adversarial mon true;
    let res = t.t_inject ~color ~chunk (rv args) in
    Monitor.set_adversarial mon false;
    match res with
    | Error _ -> () (* the valid-spawn-sequence guard did its job *)
    | Ok () ->
      if x.x_guard_on then
        Monitor.violate mon ~kind:"guard" ~where:chunk
          "forged spawn of a never-spawned chunk was accepted")
  | Gen.Wrong_color { color; chunk } -> (
    match t.t_inject ~color ~chunk [] with
    | Error _ -> ()
    | Ok () ->
      Monitor.violate mon ~kind:"trampoline" ~where:chunk
        "spawn addressed to the wrong partition was accepted")
  | Gen.Race { calls } -> t.t_race (List.map (fun (e, a) -> (e, rv a)) calls)
  | Gen.Race_kv { keys } -> (
    match x.x_kv with
    | None -> ()
    | Some k ->
      t.t_race
        (List.map
           (fun key ->
             (k.kc_get, [ Rvalue.Int (Int64.of_int key); Rvalue.Ptr k.kc_obuf ]))
           keys))
  | Gen.Sweep -> Monitor.scan_heap mon ~where:"sweep" heap

(* the wire control: a properly sealed frame carrying the secret's
   bytes must leave no live pattern for the capture check to find *)
let wire_control mon (v : Progen.victim) sentinel =
  let sealer ~color ~nonce payload =
    Seal.seal ~key:(Seal.derive ~cluster:"robust" color) ~nonce payload
  in
  let d =
    {
      Delta.seq = 1;
      op =
        Delta.Put
          {
            key = 1;
            color = v.Progen.v_secret_color;
            payload = Monitor.le_bytes sentinel;
          };
    }
  in
  Monitor.check_wire mon ~where:"sealed-frame" (Delta.render ~sealer:(Some sealer) d)

(* one full case from a fresh VM: plant, run the script, final sweep,
   wire control *)
let run_with (cell : cell) (v : Progen.victim) ~sentinel acts :
    Monitor.violation list =
  let plan = plan_of v in
  let mon = Monitor.create () in
  let tgt = make_target cell plan mon in
  let x =
    { x_tgt = tgt; x_mon = mon; x_kv = setup_kv tgt v; x_guard_on = true;
      x_sentinel = sentinel }
  in
  (try
     plant x v sentinel;
     List.iter (apply x) acts;
     Monitor.scan_heap mon ~where:"final" tgt.t_exec.Exec.heap;
     wire_control mon v sentinel
   with e ->
     tgt.t_shutdown ();
     raise e);
  tgt.t_shutdown ();
  Monitor.violations mon

(* greedy counterexample shrinking: drop one action, fresh re-run, keep
   the drop while the violation persists *)
let shrink ~recheck acts =
  let cur = ref acts in
  let i = ref 0 in
  while !i < List.length !cur do
    let cand = List.filteri (fun j _ -> j <> !i) !cur in
    if recheck cand then cur := cand else incr i
  done;
  !cur

type case = {
  cs_cell : string;
  cs_victim : string;
  cs_seed : int;
  cs_actions : int;
  cs_violations : Monitor.violation list;
  cs_repro : Gen.action list; (* shrunk script, when violations exist *)
}

let run_case (cell : cell) (v : Progen.victim) ~seed ~declass ~count : case =
  let r = Rng.make seed in
  let sentinel = Rng.sentinel (Rng.split r 3) in
  let srf = Gen.surface (plan_of v) in
  let acts = Gen.generate (Rng.split r 5) srf v.Progen.v_shape ~declass ~count in
  let vs = run_with cell v ~sentinel acts in
  let repro =
    if vs = [] then []
    else shrink ~recheck:(fun a -> run_with cell v ~sentinel a <> []) acts
  in
  {
    cs_cell = cell_name cell;
    cs_victim = v.Progen.v_name;
    cs_seed = seed;
    cs_actions = List.length acts;
    cs_violations = vs;
    cs_repro = repro;
  }

(* ------------------------------------------------------------------ *)
(* kill-rate mode: planted leak mutants                                *)

type mutant = Miscolor_global | Skip_seal | Drop_guard | Miscolor_index

let all_mutants = [ Miscolor_global; Skip_seal; Drop_guard; Miscolor_index ]

let mutant_name = function
  | Miscolor_global -> "miscolor_global"
  | Skip_seal -> "skip_seal"
  | Drop_guard -> "drop_guard"
  | Miscolor_index -> "miscolor_index"

type kill = {
  k_cell : string;
  k_mutant : string;
  k_killed : bool;
  k_detail : string;
}

let first_violation mon =
  match Monitor.violations mon with
  | [] -> "NOT KILLED: monitor saw nothing"
  | v :: _ -> Monitor.pp_violation v

let run_mutant (cell : cell) (mutant : mutant) ~seed : kill =
  let v = Progen.vault_fixture in
  let sentinel = Rng.sentinel (Rng.make (seed + 0x5ec)) in
  let mon = Monitor.create () in
  (match mutant with
  | Miscolor_global ->
    (* the partitioner "forgets" the vault's color: the global lands in
       unsafe memory and the very classify that plants the secret
       becomes an unprotected store *)
    let plan = plan_of v in
    let plan =
      {
        plan with
        Plan.global_placement =
          List.map
            (fun (g, c) ->
              if String.equal g v.Progen.v_secret_global then (g, Color.Unsafe)
              else (g, c))
            plan.Plan.global_placement;
      }
    in
    let tgt = make_target cell plan mon in
    Monitor.plant mon sentinel;
    ignore (tgt.t_call ~thread:0 "put_secret" [ Rvalue.Int sentinel ]);
    Monitor.scan_heap mon ~where:"mutant" tgt.t_exec.Exec.heap;
    tgt.t_shutdown ()
  | Skip_seal ->
    (* the replication shipper "forgets" to seal a secret-colored
       payload before it reaches the wire *)
    let tgt = make_target cell (plan_of v) mon in
    Monitor.plant mon sentinel;
    ignore (tgt.t_call ~thread:0 "put_secret" [ Rvalue.Int sentinel ]);
    let d =
      {
        Delta.seq = 1;
        op =
          Delta.Put
            {
              key = 1;
              color = v.Progen.v_secret_color;
              payload = Monitor.le_bytes sentinel;
            };
      }
    in
    Monitor.check_wire mon ~where:"mutant-wire" (Delta.render ~sealer:None d);
    tgt.t_shutdown ()
  | Drop_guard ->
    (* the §8 valid-spawn-sequence barrier is dropped: every forged
       spawn now executes, and the audit chunk declassifies the vault
       on the attacker's behalf *)
    let plan = plan_of v in
    let tgt = make_target cell plan mon in
    Monitor.plant mon sentinel;
    ignore (tgt.t_call ~thread:0 "put_secret" [ Rvalue.Int sentinel ]);
    tgt.t_guard false;
    let srf = Gen.surface plan in
    List.iter
      (fun (c, n, arity) ->
        Monitor.set_adversarial mon true;
        ignore (tgt.t_inject ~color:c ~chunk:n (rv (List.init arity (fun _ -> 1L))));
        Monitor.set_adversarial mon false)
      srf.Gen.s_illegal;
    tgt.t_shutdown ()
  | Miscolor_index -> (
    (* the txn layer "forgets" the store's color: index entries for a
       secret-colored value cache its bytes as if the store were
       unprotected, and the first scan reply — and the hash index —
       carry the sentinel straight to a client connection *)
    let v = Progen.kv_hashmap ~nbuckets:8 ~vsize:32 in
    let tgt = make_target cell (plan_of v) mon in
    match v.Progen.v_shape with
    | Progen.Kv { put; vsize; _ } ->
      let heap = tgt.t_exec.Exec.heap in
      let vbuf = Heap.alloc heap Heap.Unsafe vsize in
      fill_buf heap vbuf vsize 0;
      Heap.store heap vbuf 8 sentinel;
      ignore
        (tgt.t_call ~thread:0 put
           [ Rvalue.Int (Int64.of_int secret_key); Rvalue.Ptr vbuf ]);
      fill_buf heap vbuf vsize 0;
      Monitor.plant mon sentinel;
      let bytes = sentinel_value ~vsize sentinel in
      let txn = Txn.create ~value_color:Index.unprotected_color () in
      Txn.note_put txn ~key:secret_key ~value:bytes;
      let items =
        List.map
          (fun (e : Index.entry) ->
            {
              Protocol.si_key = e.Index.e_key;
              si_ver = e.Index.e_version;
              si_val = e.Index.e_value;
            })
          (Txn.scan txn ~start:secret_key ~stop:secret_key ~limit:8)
      in
      Monitor.check_wire mon ~where:"mutant-scan"
        (Protocol.render (Protocol.Scan_reply items));
      if Txn.lookup txn ~value:bytes <> [] then
        Monitor.violate mon ~kind:"index" ~where:"mutant-lookup"
          "secret value bytes resolvable through the hash index";
      tgt.t_shutdown ()
    | Progen.Scalar _ -> assert false));
  {
    k_cell = cell_name cell;
    k_mutant = mutant_name mutant;
    k_killed = not (Monitor.ok mon);
    k_detail = first_violation mon;
  }

(* ------------------------------------------------------------------ *)
(* the fuzz campaign                                                   *)

type cell_stats = {
  st_cell : string;
  st_programs : int;
  st_actions : int;
  st_failures : case list;
  st_wall : float;
}

type report = {
  rp_seed : int;
  rp_programs : int;
  rp_actions : int;
  rp_cells : cell_stats list;
  rp_kills : kill list;
  rp_wall : float;
}

let violations_total rp =
  List.fold_left
    (fun a st ->
      a
      + List.fold_left (fun a c -> a + List.length c.cs_violations) 0 st.st_failures)
    0 rp.rp_cells

let failures rp = List.concat_map (fun st -> st.st_failures) rp.rp_cells

let kill_rate rp =
  match rp.rp_kills with
  | [] -> 1.0
  | ks ->
    float_of_int (List.length (List.filter (fun k -> k.k_killed) ks))
    /. float_of_int (List.length ks)

let passed rp = violations_total rp = 0 && kill_rate rp = 1.0

(* program quota per cell: the simulator cells soak most of the corpus,
   the parallel cells cover the extra-lane races *)
let quotas programs =
  let share w = max 1 (programs * w / 100) in
  let ws = share 35 and ps = share 15 in
  match all_cells with
  | [ wsim; isim; wpar; ipar ] ->
    [ (wsim, ws); (isim, max 1 (programs - ws - (2 * ps))); (wpar, ps); (ipar, ps) ]
  | _ -> assert false

(* every 7th program is a key-value workload victim, the rest are
   seeded random vault programs *)
let pick_victim k pseed =
  if k mod 7 = 3 then Progen.kv_hashmap ~nbuckets:8 ~vsize:32
  else Progen.vault pseed

let fuzz ?(seed = 1) ?(programs = 500) ?(progress = fun (_ : case) -> ()) () :
    report =
  let t0 = Unix.gettimeofday () in
  let counter = ref 0 in
  let cells =
    List.map
      (fun (cell, n) ->
        let t1 = Unix.gettimeofday () in
        let cases =
          List.init n (fun _ ->
              let k = !counter in
              incr counter;
              let pseed = (seed * 1_000_003) + k in
              let v = pick_victim k pseed in
              let c =
                run_case cell v ~seed:pseed
                  ~declass:(k mod 3 <> 0)
                  ~count:(24 + (8 * (k mod 3)))
              in
              progress c;
              c)
        in
        {
          st_cell = cell_name cell;
          st_programs = n;
          st_actions = List.fold_left (fun a c -> a + c.cs_actions) 0 cases;
          st_failures = List.filter (fun c -> c.cs_violations <> []) cases;
          st_wall = Unix.gettimeofday () -. t1;
        })
      (quotas programs)
  in
  let kills =
    List.concat_map
      (fun cell -> List.map (fun m -> run_mutant cell m ~seed) all_mutants)
      all_cells
  in
  {
    rp_seed = seed;
    rp_programs = List.fold_left (fun a st -> a + st.st_programs) 0 cells;
    rp_actions = List.fold_left (fun a st -> a + st.st_actions) 0 cells;
    rp_cells = cells;
    rp_kills = kills;
    rp_wall = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* report rendering                                                    *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [env] is the record's machine stamp, a rendered JSON object *)
let write_json ~env ~path rp =
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "{\n";
  p "  \"bench\": \"robust\",\n";
  p "  \"env\": %s,\n" env;
  p "  \"seed\": %d,\n" rp.rp_seed;
  p "  \"programs\": %d,\n" rp.rp_programs;
  p "  \"actions\": %d,\n" rp.rp_actions;
  p "  \"violations\": %d,\n" (violations_total rp);
  p "  \"mutants\": %d,\n" (List.length rp.rp_kills);
  p "  \"mutants_killed\": %d,\n"
    (List.length (List.filter (fun k -> k.k_killed) rp.rp_kills));
  p "  \"kill_rate\": %.3f,\n" (kill_rate rp);
  p "  \"programs_per_sec\": %.1f,\n"
    (if rp.rp_wall > 0. then float_of_int rp.rp_programs /. rp.rp_wall else 0.);
  p "  \"wall_seconds\": %.3f,\n" rp.rp_wall;
  p "  \"cells\": [\n";
  List.iteri
    (fun i st ->
      p "    { \"cell\": %s, \"programs\": %d, \"actions\": %d,\n"
        (json_str st.st_cell) st.st_programs st.st_actions;
      p "      \"violations\": %d, \"programs_per_sec\": %.1f, \"wall_seconds\": %.3f }%s\n"
        (List.fold_left (fun a c -> a + List.length c.cs_violations) 0 st.st_failures)
        (if st.st_wall > 0. then float_of_int st.st_programs /. st.st_wall else 0.)
        st.st_wall
        (if i = List.length rp.rp_cells - 1 then "" else ","))
    rp.rp_cells;
  p "  ],\n";
  p "  \"kills\": [\n";
  List.iteri
    (fun i k ->
      p "    { \"cell\": %s, \"mutant\": %s, \"killed\": %b, \"detail\": %s }%s\n"
        (json_str k.k_cell) (json_str k.k_mutant) k.k_killed (json_str k.k_detail)
        (if i = List.length rp.rp_kills - 1 then "" else ","))
    rp.rp_kills;
  p "  ]\n";
  p "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* the one-line reproducer a failing case prints *)
let reproducer rp (c : case) =
  Printf.sprintf
    "reproduce: privagic fuzz --seed %d --programs %d   (case seed %d, cell %s, victim %s)"
    rp.rp_seed rp.rp_programs c.cs_seed c.cs_cell c.cs_victim
