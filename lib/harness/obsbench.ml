(* Observability benchmark ([privagic bench obs]):
   two measurements over the always-on runtime observability of lib/obs.

   1. Stall attribution: replay the Kv YCSB-B protocol per workload family
      on the real-parallel backend and decompose each lane's wall time
      into the five phases of {!Privagic_obs.Phase} (run / pump-wait /
      queue-wait / barrier / park). The phases partition the lane's life
      continuously, so coverage — accounted time over wall time — is ~1.0
      by construction; the gate asserts >= 0.95.

   2. Overhead: the sim hashmap image-engine replay with the event ring
      attached vs detached, over interleaved pass pairs, each pass rated
      in steps per second of process CPU time. This is the hot-path cost
      of the instrumentation itself; the CI gate asserts that the median
      pair costs <= 5% steps/s. *)

module Obs = Privagic_obs
module Ycsb = Privagic_workloads.Ycsb
open Privagic_vm

type workload_report = {
  ob_family : string;
  ob_lanes : int;              (* lanes requested from the pool *)
  ob_domains : int;            (* domains actually spawned *)
  ob_records : int;
  ob_operations : int;
  ob_wall_seconds : float;
  ob_throughput_kops : float;
  ob_steps : int;
  ob_steps_per_sec : float;
  ob_stalls : Obs.Lane.breakdown list;
}

type overhead = {
  oh_steps_per_sec_on : float;   (* median over the obs-on passes *)
  oh_steps_per_sec_off : float;
  oh_frac : float;
      (* median of the per-pair (off - on) / off; noise can go negative *)
  oh_pairs : int;
  oh_pair_quartiles : float * float * float;
      (* of the per-pair (off - on) / off *)
}

let families =
  [ (Kv.Memcached, "memcached"); (Kv.Hashmap, "hashmap");
    (Kv.Hashmap2, "hashmap-2color") ]

(* Dominant stall of a whole workload: the non-run phase with the largest
   time summed across lanes. *)
let dominant_stall r =
  let sums = Array.make Obs.Phase.count 0 in
  List.iter
    (fun (b : Obs.Lane.breakdown) ->
      Array.iteri
        (fun i v -> sums.(i) <- sums.(i) + v)
        b.Obs.Lane.b_phase_us)
    r.ob_stalls;
  let best = ref Obs.Phase.Pump_wait in
  List.iter
    (fun p ->
      if
        p <> Obs.Phase.Run
        && sums.(Obs.Phase.index p) > sums.(Obs.Phase.index !best)
      then best := p)
    Obs.Phase.all;
  !best

let min_coverage r =
  List.fold_left
    (fun acc b -> Float.min acc (Obs.Lane.coverage b))
    1.0 r.ob_stalls

(* One stall workload: load [records] keys unmeasured, then replay the
   YCSB-B operations from one closed-loop caller. With more than one
   lane the pool mostly parks waiting for that caller (E14), which is
   what the stall table shows. *)
let stall_workload ~lanes (family, label) ~records ~operations =
  let module Par = Privagic_parallel.Parallel in
  let vsize = 256 in
  let p = Par.create ~lanes (Kv.plan_for family ~nbuckets:256 ~vsize) in
  let call entry args = ignore (Par.call_entry p entry args) in
  let heap = (Par.exec p).Exec.heap in
  let put_entry, get_entry = Kv.entries family in
  let vbuf = Heap.alloc heap Heap.Unsafe vsize in
  let obuf = Heap.alloc heap Heap.Unsafe vsize in
  String.iteri
    (fun i c -> Heap.store heap (vbuf + i) 1 (Int64.of_int (Char.code c)))
    (Ycsb.value_for ~size:vsize 1);
  if family = Kv.Memcached then
    call "mc_init" [ Rvalue.Int (Int64.of_int (records * 2)) ];
  for k = 0 to records - 1 do
    call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
  done;
  let gen =
    Ycsb.create
      (Ycsb.workload_b ~seed:42 ~record_count:records
         ~operation_count:operations ~value_size:vsize ())
  in
  let steps0 = Par.total_steps p in
  let start = Unix.gettimeofday () in
  for _ = 1 to operations do
    match Ycsb.next_op gen with
    | Ycsb.Read k | Ycsb.Scan (k, _) | Ycsb.Rmw k ->
      call get_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
    | Ycsb.Update k | Ycsb.Insert k ->
      call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
  done;
  let wall = Unix.gettimeofday () -. start in
  let steps = Par.total_steps p - steps0 in
  let per_sec n = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let r =
    {
      ob_family = label;
      ob_lanes = lanes;
      ob_domains = Par.domain_count p;
      ob_records = records;
      ob_operations = operations;
      ob_wall_seconds = wall;
      ob_throughput_kops = per_sec operations /. 1000.0;
      ob_steps = steps;
      ob_steps_per_sec = per_sec steps;
      ob_stalls = Par.lane_breakdowns p;
    }
  in
  (* the overhead passes that follow are timed on process CPU seconds,
     which a live pool domain would inflate *)
  if not (Par.shutdown p) then failwith "bench obs: worker pool did not quiesce";
  r

(* One report per (lanes, family): 2 lanes ([quick]) or 2 and 4 lanes.
   Forces obs on. *)
let stall_workloads ~quick =
  Obs.set_enabled true;
  let records = if quick then 128 else 512 in
  let operations = if quick then 200 else 1000 in
  List.concat_map
    (fun lanes ->
      List.map
        (fun f -> stall_workload ~lanes f ~records ~operations)
        families)
    (if quick then [ 2 ] else [ 2; 4 ])

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One measurement cell: a sim hashmap image-engine interpreter with the
   event ring attached ([obs]) or left detached, wrapped as a thunk that
   runs one load+replay pass and returns its steps per CPU second. The
   process runs one domain here, so its CPU time is this pass's: time the
   host gives other tenants does not count, as it does on a wall clock. *)
let sim_cell ~obs ~records ~operations =
  let vsize = 64 in
  let pt =
    Pinterp.create ~engine:Exec.Image
      (Kv.plan_for Kv.Hashmap ~nbuckets:8 ~vsize)
  in
  let exec = pt.Pinterp.exec in
  exec.Exec.obs_ring <-
    (if obs then Some (Obs.Ring.create ~id:0 ~label:"sim" ()) else None);
  let pass =
    Kv.replay_pass
      ~call:(fun entry args -> (Pinterp.call_entry pt entry args).Pinterp.value)
      ~steps:(fun () -> exec.Exec.steps)
      ~heap:exec.Exec.heap Kv.Hashmap ~records ~operations ~vsize
  in
  fun () ->
    let c0 = cpu_seconds () in
    let steps, _wall = pass () in
    let cpu = cpu_seconds () -. c0 in
    if cpu > 0.0 then float_of_int steps /. cpu else 0.0

(* Paired comparison: run obs-off and obs-on passes back to back.
   Adjacent passes see the same machine conditions, so drift hits both
   sides of a pair; the median pair discards pairs a noisy neighbour
   lands in. Every pass counts: none is dropped or selected. *)
let measure_overhead ~quick =
  (* passes must be long enough (hundreds of ms) that OS scheduling
     jitter averages out within a pass: the signal is well under 1% *)
  let records = if quick then 128 else 256 in
  let operations = if quick then 2000 else 4000 in
  let pairs = if quick then 31 else 41 in
  let pass_off = sim_cell ~obs:false ~records ~operations in
  let pass_on = sim_cell ~obs:true ~records ~operations in
  (* pass 1 on either cell inserts fresh records (extra allocation steps)
     and warms the code paths: warm both, then measure *)
  ignore (pass_off ());
  ignore (pass_on ());
  let offs = Array.make pairs 0.0 and ons = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    offs.(i) <- pass_off ();
    ons.(i) <- pass_on ()
  done;
  let sorted a =
    let s = Array.copy a in
    Array.sort compare s;
    s
  in
  let median a = (sorted a).(Array.length a / 2) in
  (* linear interpolation between order statistics *)
  let quantile s q =
    let x = q *. float_of_int (Array.length s - 1) in
    let i = int_of_float x in
    if i + 1 >= Array.length s then s.(i)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  in
  let fracs =
    sorted
      (Array.init pairs (fun i ->
           if offs.(i) > 0.0 then (offs.(i) -. ons.(i)) /. offs.(i) else 0.0))
  in
  {
    oh_steps_per_sec_on = median ons;
    oh_steps_per_sec_off = median offs;
    oh_frac = quantile fracs 0.5;
    oh_pairs = pairs;
    oh_pair_quartiles =
      (quantile fracs 0.25, quantile fracs 0.5, quantile fracs 0.75);
  }

let print_stall_table reports =
  List.iter
    (fun r ->
      Format.printf
        "  %-16s %d lanes  %8.1f kops/s  %10.0f steps/s  dominant stall: %s@."
        r.ob_family r.ob_lanes r.ob_throughput_kops r.ob_steps_per_sec
        (Obs.Phase.name (dominant_stall r));
      List.iter
        (fun (b : Obs.Lane.breakdown) ->
          let wall = float_of_int (max 1 b.Obs.Lane.b_wall_us) in
          Format.printf "    %-12s %8d us wall " b.Obs.Lane.b_label
            b.Obs.Lane.b_wall_us;
          List.iter
            (fun p ->
              Format.printf " %s %.1f%%" (Obs.Phase.name p)
                (100.0
                *. float_of_int
                     b.Obs.Lane.b_phase_us.(Obs.Phase.index p)
                /. wall))
            Obs.Phase.all;
          Format.printf "  (coverage %.3f)@." (Obs.Lane.coverage b))
        r.ob_stalls)
    reports

let write_json ~path reports overhead =
  let b = Buffer.create 4096 in
  let bp fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let overall_cov =
    List.fold_left (fun acc r -> Float.min acc (min_coverage r)) 1.0 reports
  in
  bp "{\n";
  bp "  \"benchmark\": \"obs-stall-attribution\",\n";
  bp "  \"backend\": \"domains\",\n";
  bp "  \"env\": %s,\n" (Report.env_json ~seed:42);
  bp "  \"min_coverage\": %.4f,\n" overall_cov;
  bp "  \"overhead\": {\n";
  bp "    \"bench\": \"sim-hashmap-image\",\n";
  bp "    \"steps_per_sec_obs_on\": %.1f,\n" overhead.oh_steps_per_sec_on;
  bp "    \"steps_per_sec_obs_off\": %.1f,\n" overhead.oh_steps_per_sec_off;
  bp "    \"pairs\": %d,\n" overhead.oh_pairs;
  (let q1, q2, q3 = overhead.oh_pair_quartiles in
   bp "    \"pair_overhead_frac_quartiles\": [ %.4f, %.4f, %.4f ],\n" q1 q2 q3);
  bp "    \"overhead_frac\": %.4f\n" overhead.oh_frac;
  bp "  },\n";
  bp "  \"workloads\": [";
  List.iteri
    (fun i r ->
      bp "%s\n    {\n" (if i = 0 then "" else ",");
      bp "      \"family\": %S,\n" r.ob_family;
      bp "      \"lanes\": %d,\n" r.ob_lanes;
      bp "      \"domains\": %d,\n" r.ob_domains;
      bp "      \"records\": %d,\n" r.ob_records;
      bp "      \"operations\": %d,\n" r.ob_operations;
      bp "      \"wall_seconds\": %.6f,\n" r.ob_wall_seconds;
      bp "      \"throughput_kops\": %.3f,\n" r.ob_throughput_kops;
      bp "      \"steps\": %d,\n" r.ob_steps;
      bp "      \"steps_per_sec\": %.1f,\n" r.ob_steps_per_sec;
      bp "      \"dominant_stall\": %S,\n"
        (Obs.Phase.name (dominant_stall r));
      bp "      \"min_coverage\": %.4f,\n" (min_coverage r);
      bp "      \"lanes_detail\": [";
      List.iteri
        (fun j (bd : Obs.Lane.breakdown) ->
          bp "%s\n        { \"lane\": %S, \"wall_us\": %d, \
              \"dominant_stall\": %S, \"coverage\": %.4f"
            (if j = 0 then "" else ",")
            bd.Obs.Lane.b_label bd.Obs.Lane.b_wall_us
            (Obs.Phase.name (Obs.Lane.dominant_stall bd))
            (Obs.Lane.coverage bd);
          List.iter
            (fun p ->
              bp ", \"%s_us\": %d" (Obs.Phase.name p)
                bd.Obs.Lane.b_phase_us.(Obs.Phase.index p))
            Obs.Phase.all;
          bp " }")
        r.ob_stalls;
      bp "\n      ]\n";
      bp "    }")
    reports;
  bp "\n  ]\n";
  bp "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let run ?(quick = false) ?(path = "BENCH_obs.json") () =
  Format.printf "== obs: per-lane stall attribution, parallel backend ==@.";
  let reports = stall_workloads ~quick in
  print_stall_table reports;
  Format.printf "== obs: instrumentation overhead, sim hashmap image ==@.";
  let overhead = measure_overhead ~quick in
  Format.printf
    "  steps/s obs-on %.0f, obs-off %.0f  -> overhead %.2f%%@."
    overhead.oh_steps_per_sec_on overhead.oh_steps_per_sec_off
    (100.0 *. overhead.oh_frac);
  write_json ~path reports overhead;
  Format.printf "  -> %s@.@." path
