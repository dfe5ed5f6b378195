(* Walk-vs-image VM benchmark: the same YCSB-B-style put/get protocol the
   Kv harness replays, executed per (family, backend, engine) cell.
   The metric is raw interpreter speed — executed PIR instructions per
   wall-clock second — which is exactly what the image engine is supposed
   to improve; virtual-time results are engine-invariant (checked by the
   differential tests), so only host-side speed distinguishes the two. *)

open Privagic_vm

type result = {
  vb_family : string;
  vb_backend : string;        (* "sim" | "parallel" *)
  vb_engine : string;         (* "walk" | "image" *)
  vb_records : int;
  vb_operations : int;
  vb_passes : int;            (* measured passes, after one warm-up *)
  vb_steps : int;             (* executed instructions of the fastest pass *)
  vb_wall_seconds : float;    (* load + run phases of the fastest pass *)
  vb_steps_per_sec : float;   (* of the fastest pass *)
  vb_steps_per_sec_min : float;
  vb_steps_per_sec_max : float;
  vb_ops_per_sec : float;
}

let families = [ Kv.Hashmap; Kv.Rbtree; Kv.Memcached ]

(* Measured passes per cell. Single passes are tens of milliseconds,
   short enough that one GC major slice or a noisy neighbour skews the
   rate, so the fastest pass is the cell's rate. A warm-up pass runs
   first: it inserts the records (extra allocation steps), so every
   measured pass executes the same step count on either engine. *)
let passes = 3

let measure family backend engine ~records ~operations pass =
  ignore (pass ());
  let runs = List.init passes (fun _ -> pass ()) in
  let rate (steps, wall) = if wall > 0.0 then float_of_int steps /. wall else 0.0 in
  let steps, wall =
    List.fold_left
      (fun ((_, bw) as best) ((_, w) as r) -> if w < bw then r else best)
      (List.hd runs) runs
  in
  let rates = List.map rate runs in
  {
    vb_family = Kv.family_name family;
    vb_backend = backend;
    vb_engine = Exec.engine_name engine;
    vb_records = records;
    vb_operations = operations;
    vb_passes = passes;
    vb_steps = steps;
    vb_wall_seconds = wall;
    vb_steps_per_sec = rate (steps, wall);
    vb_steps_per_sec_min = List.fold_left Float.min infinity rates;
    vb_steps_per_sec_max = List.fold_left Float.max 0.0 rates;
    vb_ops_per_sec =
      (if wall > 0.0 then float_of_int operations /. wall else 0.0);
  }

let run_sim engine family ~nbuckets ~vsize ~records ~operations =
  let pt = Pinterp.create ~engine (Kv.plan_for family ~nbuckets ~vsize) in
  let exec = pt.Pinterp.exec in
  Kv.replay_pass
    ~call:(fun entry args -> (Pinterp.call_entry pt entry args).Pinterp.value)
    ~steps:(fun () -> exec.Exec.steps)
    ~heap:exec.Exec.heap family ~records ~operations ~vsize
  |> measure family "sim" engine ~records ~operations

let run_par engine family ~nbuckets ~vsize ~records ~operations =
  let module Par = Privagic_parallel.Parallel in
  let p = Par.create ~lanes:2 ~engine (Kv.plan_for family ~nbuckets ~vsize) in
  let r =
    Kv.replay_pass
      ~call:(fun entry args -> (Par.call_entry p entry args).Par.value)
      ~steps:(fun () -> Par.total_steps p)
      ~heap:(Par.exec p).Exec.heap family ~records ~operations ~vsize
    |> measure family "parallel" engine ~records ~operations
  in
  ignore (Par.shutdown p);
  r

let run_all ~quick =
  let records = if quick then 128 else 256 in
  let operations = if quick then 300 else 4000 in
  (* small bucket count on purpose: chains of ~32 nodes make the replay
     interpreter-bound (pointer-chasing loops) rather than dominated by
     the per-request scheduler hand-off, which both engines share *)
  let nbuckets = 8 and vsize = 64 in
  List.concat_map
    (fun family ->
      List.concat_map
        (fun engine ->
          [ run_sim engine family ~nbuckets ~vsize ~records ~operations;
            run_par engine family ~nbuckets ~vsize ~records ~operations ])
        [ Exec.Walk; Exec.Image ])
    families

(* image-vs-walk steps/sec ratio for one (family, backend) cell *)
let speedup results ~family ~backend =
  let rate engine =
    List.find_opt
      (fun r ->
        r.vb_family = family && r.vb_backend = backend
        && r.vb_engine = Exec.engine_name engine)
      results
    |> Option.map (fun r -> r.vb_steps_per_sec)
  in
  match (rate Exec.Walk, rate Exec.Image) with
  | Some w, Some i when w > 0.0 -> Some (i /. w)
  | _ -> None

let write_json ~path results =
  let b = Buffer.create 2048 in
  let bp fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bp "{\n";
  bp "  \"benchmark\": \"vm-engine-walk-vs-image\",\n";
  bp "  \"env\": %s,\n" (Report.env_json ~seed:42);
  bp "  \"passes\": %d,\n" passes;
  (match speedup results ~family:"hashmap" ~backend:"sim" with
  | Some s -> bp "  \"speedup_sim_hashmap\": %.3f,\n" s
  | None -> ());
  bp "  \"cells\": [";
  List.iteri
    (fun i r ->
      bp "%s\n    {\n" (if i = 0 then "" else ",");
      bp "      \"family\": %S,\n" r.vb_family;
      bp "      \"backend\": %S,\n" r.vb_backend;
      bp "      \"engine\": %S,\n" r.vb_engine;
      bp "      \"records\": %d,\n" r.vb_records;
      bp "      \"operations\": %d,\n" r.vb_operations;
      bp "      \"passes\": %d,\n" r.vb_passes;
      bp "      \"steps\": %d,\n" r.vb_steps;
      bp "      \"wall_seconds\": %.6f,\n" r.vb_wall_seconds;
      bp "      \"steps_per_sec\": %.0f,\n" r.vb_steps_per_sec;
      bp "      \"steps_per_sec_min\": %.0f,\n" r.vb_steps_per_sec_min;
      bp "      \"steps_per_sec_max\": %.0f,\n" r.vb_steps_per_sec_max;
      bp "      \"ops_per_sec\": %.1f\n" r.vb_ops_per_sec;
      bp "    }")
    results;
  bp "\n  ]\n";
  bp "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let run ?(quick = false) ?(path = "BENCH_vm.json") () =
  Format.printf "== vm engines: walk vs image, steps/sec ==@.";
  let results = run_all ~quick in
  List.iter
    (fun r ->
      Format.printf
        "  %-10s %-8s %-5s %12.0f steps/s  (min %.0f over %d passes, %d \
         steps, %.3f s)@."
        r.vb_family r.vb_backend r.vb_engine r.vb_steps_per_sec
        r.vb_steps_per_sec_min r.vb_passes r.vb_steps r.vb_wall_seconds)
    results;
  (match speedup results ~family:"hashmap" ~backend:"sim" with
  | Some s -> Format.printf "  image/walk speedup (sim, hashmap): %.2fx@." s
  | None -> ());
  write_json ~path results;
  Format.printf "  -> %s@.@." path
