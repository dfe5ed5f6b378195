(* The privagic command-line compiler and runner.

   privagic check <file.mc>        type-check the secure types
   privagic ir <file.mc>           dump the PIR after mem2reg
   privagic partition <file.mc>    print the partition plan and the chunks
   privagic run <file.mc> <entry> [args...]
                                   execute the partitioned program
   privagic profile <file.mc> <entry> [args...]
                                   execute under telemetry; print metrics
                                   and the critical path (--live dumps the
                                   Prometheus exposition)
   privagic tcb <file.mc>          per-enclave TCB report
   privagic experiments [names]    regenerate the paper's tables/figures
   privagic bench vm|obs           engine speed / observability records *)

open Cmdliner
open Privagic_pir
open Privagic_secure

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Strict positive-integer option values: "--lanes 0" or a negative
   "--max-steps" is a usage error, reported by cmdliner before anything
   runs, not a hang or an array-size crash later. *)
let pos_int what =
  Arg.conv ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | Some _ -> Error (`Msg (Printf.sprintf "%s must be positive" what))
        | None -> Error (`Msg (Printf.sprintf "%s must be an integer" what))),
      Format.pp_print_int )

(* TCP ports parse as 1..65535 ([serve] additionally allows 0 =
   ephemeral): a fat-fingered "--port 111311" is a usage error reported
   up front, not a connect timeout minutes later. *)
let port_conv ?(ephemeral = false) () =
  Arg.conv ~docv:"PORT"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when (n >= 1 || (ephemeral && n = 0)) && n <= 65535 -> Ok n
        | _ ->
          Error
            (`Msg
               (if ephemeral then "port must be in 0..65535 (0 = ephemeral)"
                else "port must be in 1..65535"))),
      Format.pp_print_int )

let hostport_conv =
  Arg.conv ~docv:"HOST:PORT"
    ( (fun s ->
        match String.rindex_opt s ':' with
        | None -> Error (`Msg "expected HOST:PORT")
        | Some i -> (
          let host = String.sub s 0 i in
          let p = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt p with
          | Some n when n >= 1 && n <= 65535 && host <> "" -> Ok (host, n)
          | _ -> Error (`Msg "port of HOST:PORT must be in 1..65535"))),
      fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p )

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          match s with
          | "sim" -> Ok `Sim
          | "parallel" -> Ok `Parallel
          | _ -> Error (`Msg "backend must be 'sim' or 'parallel'")),
        fun fmt b ->
          Format.pp_print_string fmt
            (match b with `Sim -> "sim" | `Parallel -> "parallel") )
  in
  Arg.(
    value & opt backend_conv `Sim
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"Execution backend: 'sim' (deterministic virtual time on the \
              SGX simulator) or 'parallel' (OCaml 5 domains, one worker \
              per lane and partition, lock-free queues, wall-clock time).")

let engine_arg =
  let engine_conv =
    Arg.conv
      ( (fun s ->
          match Privagic_vm.Exec.engine_of_string s with
          | Some e -> Ok e
          | None -> Error (`Msg "engine must be 'walk' or 'image'")),
        fun fmt e ->
          Format.pp_print_string fmt (Privagic_vm.Exec.engine_name e) )
  in
  Arg.(
    value
    & opt engine_conv (Privagic_vm.Exec.default_engine ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Execution engine: 'image' (default; the plan is lowered once \
              into a flattened linked image and executed by the \
              index-resolved hot loop) or 'walk' (the tree-walking \
              oracle the image engine is differentially tested against). \
              The default can also be set with \\$(b,PRIVAGIC_ENGINE).")

let lanes_arg =
  Arg.(
    value
    & opt (pos_int "lanes") 2
    & info [ "lanes" ] ~docv:"N"
        ~doc:"Worker lanes of the parallel backend: application threads \
              map onto N queues per color, bounding the domain count at \
              N × colors.")

let auth_arg =
  Arg.(
    value & flag
    & info [ "auth-pointers" ]
        ~doc:"Enable the authenticated-pointer extension (paper §8 future \
              work): indirection pointers of multi-color structures carry a \
              MAC, making them legal in hardened mode and tamper-evident.")

let mode_arg =
  let mode_conv =
    Arg.conv
      ( (fun s ->
          match s with
          | "hardened" -> Ok Mode.Hardened
          | "relaxed" -> Ok Mode.Relaxed
          | _ -> Error (`Msg "mode must be 'hardened' or 'relaxed'")),
        fun fmt m -> Format.pp_print_string fmt (Mode.to_string m) )
  in
  Arg.(
    value
    & opt mode_conv Mode.Hardened
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Compiler mode: 'hardened' (confidentiality, integrity, Iago \
              protection) or 'relaxed' (no Iago protection; required for \
              multi-color structures).")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Annotated mini-C source file.")

let compile path =
  try Privagic_minic.Driver.compile ~file:path (read_file path) with
  | Privagic_minic.Driver.Error e ->
    prerr_endline (Privagic_minic.Driver.error_to_string e);
    exit 2

let check_action mode auth path =
  let m = compile path in
  let res = Infer.run ~mode ~auth_pointers:auth m in
  List.iter
    (fun d -> Format.printf "%s@." (Diagnostic.to_string d))
    res.Infer.diagnostics;
  if Infer.ok res then begin
    Format.printf "%s: OK (%s mode)@." path (Mode.to_string mode);
    List.iter
      (fun inst ->
        Format.printf "  %s: colorset {%s}@." inst.Infer.iname
          (String.concat ", "
             (List.map Color.to_string
                (Color.Set.elements (Infer.colorset inst)))))
      (Infer.instances res);
    0
  end
  else 1

let ir_action path =
  let m = compile path in
  print_string (Pmodule.to_string m);
  0

let build_plan ?(auth = false) mode path =
  let m = compile path in
  let res = Infer.run ~mode ~auth_pointers:auth m in
  if not (Infer.ok res) then begin
    List.iter
      (fun d -> prerr_endline (Diagnostic.to_string d))
      res.Infer.diagnostics;
    exit 1
  end;
  let plan = Privagic_partition.Plan.build ~mode ~auth_pointers:auth res in
  if plan.Privagic_partition.Plan.diagnostics <> [] then begin
    List.iter
      (fun d -> prerr_endline (Diagnostic.to_string d))
      plan.Privagic_partition.Plan.diagnostics;
    exit 1
  end;
  plan

let partition_action mode auth dump_chunks path =
  let plan = build_plan ~auth mode path in
  Format.printf "%a@." Privagic_partition.Plan.pp plan;
  if dump_chunks then
    Hashtbl.iter
      (fun _ (pf : Privagic_partition.Plan.pfunc) ->
        List.iter
          (fun (ci : Privagic_partition.Plan.chunk_info) ->
            Format.printf "%a@." Func.pp ci.Privagic_partition.Plan.ci_func)
          pf.Privagic_partition.Plan.pf_chunks)
      plan.Privagic_partition.Plan.pfuncs;
  0

let tcb_action mode auth path =
  let plan = build_plan ~auth mode path in
  Format.printf "%a@." Privagic_partition.Tcb.pp
    (Privagic_partition.Tcb.of_plan plan);
  0

module Tel = Privagic_telemetry

let write_trace rec_ out =
  try Tel.Chrome_trace.recorder_to_file rec_ out with
  | Sys_error msg ->
    prerr_endline ("cannot write trace: " ^ msg);
    exit 2

(* run --backend=parallel: same plan, executed on OCaml 5 domains with the
   lock-free queue; reports wall-clock time instead of simulated cycles. *)
let run_parallel_action trace lanes engine plan entry argv =
  let module Par = Privagic_parallel.Parallel in
  let pt = Par.create ~lanes ~engine plan in
  let rec_ =
    match trace with
    | None -> None
    | Some _ ->
      let r = Tel.Recorder.create () in
      Par.set_telemetry pt r;
      Some r
  in
  (match Par.call_entry pt entry argv with
  | r ->
    print_string (Par.output pt);
    (match (trace, rec_) with
    | Some out, Some rec_ ->
      write_trace rec_ out;
      Format.printf "trace: %d events on %d tracks -> %s@."
        (Tel.Recorder.length rec_)
        (List.length (Tel.Recorder.tracks rec_))
        out
    | _ -> ());
    Format.printf "=> %s  (wall: %.3f ms on %d domains)@."
      (Privagic_vm.Rvalue.to_string r.Par.value)
      (r.Par.wall_seconds *. 1e3) (Par.domain_count pt);
    ignore (Par.shutdown pt)
  | exception Par.Error msg ->
    ignore (Par.shutdown pt);
    prerr_endline ("runtime error: " ^ msg);
    exit 3
  | exception Privagic_vm.Exec.Trap msg ->
    ignore (Par.shutdown pt);
    prerr_endline ("trap: " ^ msg);
    exit 3);
  0

let run_action mode auth trace schedule max_steps backend lanes engine path
    entry args =
  let plan = build_plan ~auth mode path in
  let argv0 =
    List.map (fun a -> Privagic_vm.Rvalue.Int (Int64.of_string a)) args
  in
  if backend = `Parallel then
    run_parallel_action trace lanes engine plan entry argv0
  else begin
  let pt = Privagic_vm.Pinterp.create ~engine plan in
  let argv =
    List.map (fun a -> Privagic_vm.Rvalue.Int (Int64.of_string a)) args
  in
  let rec_ =
    match trace with
    | None -> None
    | Some _ ->
      let r = Tel.Recorder.create () in
      Privagic_vm.Pinterp.set_telemetry pt r;
      Some r
  in
  if schedule then Privagic_vm.Pinterp.start_trace pt;
  (match Privagic_vm.Pinterp.call_entry pt ?max_steps entry argv with
  | r ->
    print_string (Privagic_vm.Pinterp.output pt);
    if schedule then
      Format.printf "%a"
        Privagic_vm.Pinterp.pp_trace
        (Privagic_vm.Pinterp.stop_trace pt);
    (match (trace, rec_) with
    | Some out, Some rec_ ->
      write_trace rec_ out;
      Format.printf "trace: %d events on %d tracks -> %s@."
        (Tel.Recorder.length rec_)
        (List.length (Tel.Recorder.tracks rec_))
        out
    | _ -> ());
    Format.printf "=> %s  (latency: %.0f cycles)@."
      (Privagic_vm.Rvalue.to_string r.Privagic_vm.Pinterp.value)
      r.Privagic_vm.Pinterp.latency_cycles
  | exception Privagic_vm.Pinterp.Error msg ->
    prerr_endline ("runtime error: " ^ msg);
    (* a step-budget exhaustion (--max-steps) is reported distinctly *)
    if max_steps <> None then exit 4 else exit 3
  | exception Privagic_vm.Exec.Trap msg ->
    prerr_endline ("trap: " ^ msg);
    exit 3);
  0
  end

(* profile: run an entry under telemetry, then print the plain-text
   summary (counters, histograms, occupancy) and the critical path.
   --live additionally dumps the lib/obs Prometheus exposition of the
   run's VM counters. *)
let profile_action mode auth trace engine live path entry args =
  let plan = build_plan ~auth mode path in
  let pt = Privagic_vm.Pinterp.create ~engine plan in
  let argv =
    List.map (fun a -> Privagic_vm.Rvalue.Int (Int64.of_string a)) args
  in
  let rec_ = Tel.Recorder.create () in
  Privagic_vm.Pinterp.set_telemetry pt rec_;
  (match Privagic_vm.Pinterp.call_entry pt entry argv with
  | r ->
    print_string (Privagic_vm.Pinterp.output pt);
    let track_name = Tel.Recorder.track_name rec_ in
    let summary = Tel.Summary.of_recorder rec_ in
    Format.printf "%a@." (Tel.Summary.pp ~track_name) summary;
    let cp = Tel.Critical_path.analyze (Tel.Recorder.events rec_) in
    Format.printf "%a@." (Tel.Critical_path.pp ~track_name) cp;
    (match trace with
    | Some out ->
      write_trace rec_ out;
      Format.printf "trace written to %s@." out
    | None -> ());
    (if live then begin
       let module Obs = Privagic_obs in
       let reg = Obs.Registry.create () in
       let ex = pt.Privagic_vm.Pinterp.exec in
       Obs.Registry.gauge reg
         ~help:"Executed PIR instructions (all executors)"
         "privagic_vm_steps_total"
         (fun () -> float_of_int ex.Privagic_vm.Exec.steps);
       Obs.Registry.gauge reg ~help:"Extern dispatches"
         "privagic_vm_externs_total"
         (fun () -> float_of_int ex.Privagic_vm.Exec.externs);
       Obs.Registry.multi_gauge reg
         ~help:"Declassify calls by source color"
         "privagic_declassify_total"
         (fun () ->
           Hashtbl.fold
             (fun color r acc ->
               ([ ("color", color) ], float_of_int !r) :: acc)
             ex.Privagic_vm.Exec.declass []
           |> List.sort compare);
       print_string (Obs.Registry.expose reg)
     end);
    Format.printf "=> %s  (latency: %.0f cycles)@."
      (Privagic_vm.Rvalue.to_string r.Privagic_vm.Pinterp.value)
      r.Privagic_vm.Pinterp.latency_cycles
  | exception Privagic_vm.Pinterp.Error msg ->
    prerr_endline ("runtime error: " ^ msg);
    exit 3
  | exception Privagic_vm.Exec.Trap msg ->
    prerr_endline ("trap: " ^ msg);
    exit 3);
  0

let graph_action mode auth path =
  let plan = build_plan ~auth mode path in
  print_string (Privagic_partition.Graphviz.to_string plan);
  0

let dataflow_action path =
  let m = compile path in
  let r = Privagic_dataflow.Taint.analyze m in
  Format.printf "sequential data-flow analysis (Glamdring-style baseline)@.";
  Format.printf "locations a data-flow tool would protect: {%s}@."
    (String.concat ", " (Privagic_dataflow.Taint.protected_locations r));
  0

let experiments_action quick names =
  Privagic_harness.Experiments.run ~quick ~names ();
  0

let bench_action quick out target =
  match target with
  | "vm" ->
    Privagic_harness.Vmbench.run ~quick
      ~path:(Option.value out ~default:"BENCH_vm.json") ();
    0
  | "obs" ->
    Privagic_harness.Obsbench.run ~quick
      ~path:(Option.value out ~default:"BENCH_obs.json") ();
    0
  | t ->
    prerr_endline ("bench: unknown target '" ^ t ^ "' (expected: vm, obs)");
    2

(* --- the robust-safety fuzzer --- *)

let fuzz_action seed programs quick out =
  let module R = Privagic_robust.Driver in
  let programs = if quick then min programs 40 else programs in
  let checked = ref 0 in
  let progress (_ : R.case) =
    incr checked;
    if !checked mod 25 = 0 then Printf.eprintf "  %d programs checked\r%!" !checked
  in
  let rp = R.fuzz ~seed ~programs ~progress () in
  let path = Option.value out ~default:"BENCH_robust.json" in
  R.write_json ~env:(Privagic_harness.Report.env_json ~seed) ~path rp;
  let killed = List.length (List.filter (fun k -> k.R.k_killed) rp.R.rp_kills) in
  Printf.printf
    "robust: %d adversarial programs, %d actions, %d secrecy violation(s), \
     mutant kill rate %.0f%% (%d/%d), %.1fs\n"
    rp.R.rp_programs rp.R.rp_actions (R.violations_total rp)
    (100. *. R.kill_rate rp)
    killed (List.length rp.R.rp_kills) rp.R.rp_wall;
  List.iter
    (fun st ->
      Printf.printf "  %-14s %4d programs  %5d actions  %d violation(s)  %.1f prog/s\n"
        st.R.st_cell st.R.st_programs st.R.st_actions
        (List.fold_left
           (fun a (c : R.case) -> a + List.length c.R.cs_violations)
           0 st.R.st_failures)
        (if st.R.st_wall > 0. then float_of_int st.R.st_programs /. st.R.st_wall
         else 0.))
    rp.R.rp_cells;
  List.iter
    (fun (c : R.case) ->
      Printf.printf "FAIL %s victim=%s case-seed=%d\n" c.R.cs_cell c.R.cs_victim
        c.R.cs_seed;
      List.iter
        (fun v -> Printf.printf "  %s\n" (Privagic_robust.Monitor.pp_violation v))
        c.R.cs_violations;
      Printf.printf "  shrunk to %d action(s):\n" (List.length c.R.cs_repro);
      List.iter
        (fun a -> Printf.printf "    %s\n" (Privagic_robust.Gen.describe a))
        c.R.cs_repro;
      Printf.printf "  %s\n" (R.reproducer rp c))
    (R.failures rp);
  List.iter
    (fun (k : R.kill) ->
      if not k.R.k_killed then
        Printf.printf "UNCAUGHT MUTANT %s on %s\n" k.R.k_mutant k.R.k_cell)
    rp.R.rp_kills;
  Printf.printf "result: %s (record: %s)\n"
    (if R.passed rp then "PASS" else "FAIL")
    path;
  if R.passed rp then 0 else 1

(* --- the serving layer --- *)

module Server = Privagic_server.Server
module Loadgen = Privagic_loadgen.Loadgen
module Repl = Privagic_replication

let serve_action mode auth trace engine host port queue_depth
    policy max_batch vsize shards capacity replica_of repl_sync
    repl_window cluster_key path =
  let plan = build_plan ~auth mode path in
  let bnd =
    match Server.bindings_of_plan plan with
    | Some b -> b
    | None ->
      prerr_endline
        "serve: the program exports no known key-value entry family \
         (expected e.g. mc_set/mc_get or hm_put/hm_get)";
      exit 1
  in
  if shards < 1 then begin
    prerr_endline "serve: --shards must be at least 1";
    exit 1
  end;
  let rec_ =
    match trace with Some _ -> Tel.Recorder.create () | None -> Tel.Recorder.null
  in
  (* one simulator instance per shard: each shard's event loop owns its
     store exclusively, so the backends never contend *)
  let mk_store () =
    let pt = Privagic_vm.Pinterp.create ~engine plan in
    if rec_ != Tel.Recorder.null then Privagic_vm.Pinterp.set_telemetry pt rec_;
    Server.store_of_pinterp pt
  in
  let stores = Array.init shards (fun _ -> mk_store ()) in
  (match bnd.Server.b_init with
  | Some entry ->
    Array.iter
      (fun store ->
        match
          store.Server.st_call entry
            [ Privagic_vm.Rvalue.Int (Int64.of_int capacity) ]
        with
        | Ok _ -> ()
        | Error m ->
          prerr_endline (Printf.sprintf "serve: %s failed: %s" entry m);
          exit 3)
      stores
  | None -> ());
  let cfg =
    {
      Server.host;
      port;
      shards;
      queue_depth;
      policy;
      max_batch;
      vsize;
      telemetry = rec_;
      repl_window;
      repl_cluster = cluster_key;
    }
  in
  let replica_disp =
    Option.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) replica_of
  in
  let srv =
    try Server.start ?replica_of:replica_disp cfg bnd stores with Failure m ->
      prerr_endline ("serve: " ^ m);
      exit 2
  in
  Format.printf
    "listening on %s:%d (%s program, %s backend, %d shards%s)@."
    host (Server.port srv) bnd.Server.b_family stores.(0).Server.st_name shards
    (match replica_disp with
    | Some a -> Printf.sprintf ", replica of %s" a
    | None -> "");
  Format.printf
    "protocol: get/set/del/getv/cas/scan/txn..exec/stats/quit/shutdown; \
     drain with SIGINT@.";
  (* as a replica: run the replication client against the primary, apply
     its stream into this server, and promote on primary loss *)
  let stopping = Atomic.make false in
  let repl_client =
    match replica_of with
    | None -> None
    | Some (rhost, rport) ->
      let apply (d : Repl.Delta.t) =
        match d.Repl.Delta.op with
        | Repl.Delta.Put { key; payload; _ } ->
          Server.apply_put srv ~seq:d.Repl.Delta.seq ~key ~payload
        | Repl.Delta.Del { key } ->
          Server.apply_del srv ~seq:d.Repl.Delta.seq ~key
      in
      let on_lost () =
        if (not (Atomic.get stopping)) && not (Server.is_draining srv) then begin
          Server.promote srv;
          Printf.printf "primary lost: promoted to primary\n%!"
        end
      in
      Some
        (Repl.Replica.start ~sync:repl_sync ~cluster:cluster_key ~on_lost
           ~host:rhost ~port:rport ~apply ())
  in
  (* a drain must not run inside the signal handler: handlers interrupt an
     arbitrary thread, possibly one the drain would join. The replication
     client stops first, so a drain is never seen as a lost primary. *)
  let on_signal _ =
    ignore
      (Thread.create
         (fun () ->
           Atomic.set stopping true;
           (match repl_client with
           | Some r -> Repl.Replica.stop r
           | None -> ());
           Server.drain srv)
         ())
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  Server.wait srv;
  Atomic.set stopping true;
  (match repl_client with Some r -> Repl.Replica.stop r | None -> ());
  Format.printf "drained.@.";
  List.iter
    (fun (k, v) -> Format.printf "  %-20s %s@." k v)
    (Server.stats_fields srv);
  (match trace with
  | Some out ->
    write_trace rec_ out;
    Format.printf "trace written to %s@." out
  | None -> ());
  0

let loadgen_action host port clients ops rate depth records vsize seed
    read_prop mix scan_len no_preload shutdown out =
  let cfg =
    {
      Loadgen.host;
      port;
      clients;
      ops;
      rate;
      depth;
      record_count = records;
      vsize;
      seed;
      read_prop;
      mix;
      scan_len;
      preload = not no_preload;
      shutdown;
    }
  in
  match Loadgen.run cfg with
  | r ->
    Format.printf "%a@." Loadgen.pp_result r;
    (match out with
    | Some path ->
      Loadgen.write_json ~path cfg r;
      Format.printf "wrote %s@." path
    | None -> ());
    if r.Loadgen.r_ops_ok = 0 then begin
      prerr_endline "loadgen: no operation completed";
      1
    end
    else if r.Loadgen.r_errors > 0 then begin
      prerr_endline
        (Printf.sprintf "loadgen: %d errors" r.Loadgen.r_errors);
      1
    end
    else 0
  | exception Failure m ->
    prerr_endline m;
    2

(* --- cmdliner wiring --- *)

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Type-check the secure types of a program")
    Term.(const check_action $ mode_arg $ auth_arg $ file_arg)

let ir_cmd =
  Cmd.v (Cmd.info "ir" ~doc:"Dump the PIR after mem2reg")
    Term.(const ir_action $ file_arg)

let partition_cmd =
  let dump =
    Arg.(value & flag & info [ "chunks" ] ~doc:"Also dump the chunk bodies.")
  in
  Cmd.v (Cmd.info "partition" ~doc:"Print the partition plan")
    Term.(const partition_action $ mode_arg $ auth_arg $ dump $ file_arg)

let tcb_cmd =
  Cmd.v (Cmd.info "tcb" ~doc:"Per-enclave trusted-computing-base report")
    Term.(const tcb_action $ mode_arg $ auth_arg $ file_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:"Record telemetry and write a Chrome trace-event JSON file \
              (open in chrome://tracing or Perfetto): one track per \
              worker, chunk spans, flow arrows for spawn/cont messages.")

let entry_pos =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"ENTRY" ~doc:"Entry point to execute.")

let args_pos =
  Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS"
         ~doc:"Integer arguments.")

let run_cmd =
  let schedule =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:"Print the message/chunk schedule in virtual time (the \
                runtime's own Figure 7).")
  in
  let max_steps =
    Arg.(
      value
      & opt (some (pos_int "max-steps")) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Bound the scheduler steps for the request; exhaustion \
                exits with code 4, distinguishable from non-completion.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a partitioned program on the SGX simulator \
                          or on real domains (--backend=parallel)")
    Term.(const run_action $ mode_arg $ auth_arg $ trace_arg $ schedule
          $ max_steps $ backend_arg $ lanes_arg $ engine_arg $ file_arg
          $ entry_pos $ args_pos)

let profile_cmd =
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:"After the run, dump the run's VM counters (steps, extern \
                dispatches, declassify-per-color) in Prometheus text \
                exposition format — the same grammar 'stats metrics' \
                serves on a live server.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Execute an entry point under telemetry and print the metrics \
             summary (counters, latency histograms, per-worker occupancy) \
             and the critical path through the partitioned execution; \
             --live dumps the Prometheus exposition of the run")
    Term.(const profile_action $ mode_arg $ auth_arg $ trace_arg $ engine_arg
          $ live $ file_arg $ entry_pos $ args_pos)

let graph_cmd =
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Emit the partition plan as a Graphviz DOT graph (chunks \
             grouped by partition; direct calls solid, spawns dashed, \
             cont-carried returns dotted)")
    Term.(const graph_action $ mode_arg $ auth_arg $ file_arg)

let dataflow_cmd =
  Cmd.v
    (Cmd.info "dataflow"
       ~doc:"Run the sequential data-flow baseline (unsound for threads, \
             Fig. 3) and print the locations it would protect")
    Term.(const dataflow_action $ file_arg)

let experiments_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced sizes (seconds instead of minutes).")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAMES"
          ~doc:"Experiments to run: fig3 fig8 fig9 fig10 table4 ablation. \
                Default: all.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures")
    Term.(const experiments_action $ quick $ names)

let bench_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced record/operation counts (seconds).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON record (default BENCH_<target>.json).")
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"Benchmark target: 'vm' (walk-vs-image engine comparison, \
                steps/sec) or 'obs' (per-lane stall attribution plus \
                instrumentation overhead).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run a runtime benchmark target; 'vm' compares the \
             tree-walking and linked-image engines across workloads on \
             both backends (BENCH_vm.json), 'obs' measures stall \
             attribution and observability overhead (BENCH_obs.json). \
             The served store is measured by the benchmark \
             (benchsuite/run.py), the paper's figures by 'experiments'.")
    Term.(const bench_action $ quick $ out $ target)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Base seed of the campaign; every victim program, sentinel \
                and adversarial script derives from it, so one seed \
                reproduces the whole batch.")
  in
  let programs =
    Arg.(
      value & opt (pos_int "programs") 500
      & info [ "programs" ] ~docv:"N"
          ~doc:"Adversarial programs to check, spread across the \
                {walk,image} x {sim,parallel} matrix (default 500).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Cap the campaign at 40 programs (CI smoke).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON record (default BENCH_robust.json).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Adversarial robust-safety campaign: generate hostile \
             unsafe-side code against checked partitions and trace-check \
             that no secret leaks; also verifies the monitor kills every \
             planted leak mutant. Exits nonzero on any secrecy violation \
             or uncaught mutant.")
    Term.(const fuzz_action $ seed $ programs $ quick $ out)

let serve_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port =
    Arg.(
      value
      & opt (port_conv ~ephemeral:true ()) 11311
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 picks an ephemeral one (printed at startup).")
  in
  let queue_depth =
    Arg.(
      value & opt (pos_int "queue-depth") 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Cross-shard inbox high-water mark (backpressure \
                threshold).")
  in
  let policy =
    let policy_conv =
      Arg.conv
        ( (fun s ->
            match s with
            | "block" -> Ok Server.Block
            | "shed" -> Ok Server.Shed
            | _ -> Error (`Msg "policy must be 'block' or 'shed'")),
          fun fmt p ->
            Format.pp_print_string fmt
              (match p with Server.Block -> "block" | Server.Shed -> "shed") )
    in
    Arg.(
      value & opt policy_conv Server.Block
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Above the high-water mark: 'block' the producing shard \
                (backpressure) or 'shed' with SERVER_BUSY.")
  in
  let max_batch =
    Arg.(
      value & opt (pos_int "batch") 8
      & info [ "batch" ] ~docv:"N"
          ~doc:"Requests executed per queue handoff; duplicate gets inside \
                a batch are answered once.")
  in
  let vsize =
    Arg.(
      value & opt (pos_int "vsize") 32
      & info [ "vsize" ] ~docv:"BYTES"
          ~doc:"Value-buffer size of the program (memcached_lite.mc: 32).")
  in
  let shards =
    Arg.(
      value & opt (pos_int "shards") 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Single-writer keyspace shards. Keys hash to a shard by \
                key mod N; each shard runs its own event loop (domain) and \
                owns a private backend instance, so reads and single-shard \
                writes never take a global lock. Multi-shard transactions \
                commit via two-phase commit.")
  in
  let capacity =
    Arg.(
      value & opt (pos_int "capacity") 4096
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Capacity passed to the program's init entry (mc_init).")
  in
  let replica_of =
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "replica-of" ] ~docv:"HOST:PORT"
          ~doc:"Run as a read-only replica of the primary at HOST:PORT: \
                connect, stream its committed deltas (secret-colored \
                payloads arrive sealed), apply them, and serve gets. When \
                the primary drains or dies the replica promotes itself and \
                starts accepting writes.")
  in
  let repl_sync =
    Arg.(
      value & flag
      & info [ "repl-sync" ]
          ~doc:"Replicate synchronously (with --replica-of): the primary \
                holds each write's response until this replica acknowledged \
                it, giving clients read-your-writes on replica reads.")
  in
  let repl_window =
    Arg.(
      value & opt (pos_int "repl-window") 1024
      & info [ "repl-window" ] ~docv:"N"
          ~doc:"Replication flow control: unacknowledged in-flight deltas \
                allowed per replica connection (as a primary).")
  in
  let cluster_key =
    Arg.(
      value & opt string "privagic"
      & info [ "cluster-key" ] ~docv:"SECRET"
          ~doc:"Cluster secret the per-enclave sealing keys derive from \
                (models attestation-time key provisioning); primary and \
                replicas must agree.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a partitioned key-value program over TCP \
             (memcached-lite text protocol: get/set/del/stats/quit/shutdown)")
    Term.(const serve_action $ mode_arg $ auth_arg $ trace_arg
          $ engine_arg $ host $ port
          $ queue_depth $ policy $ max_batch $ vsize $ shards
          $ capacity $ replica_of $ repl_sync $ repl_window $ cluster_key
          $ file_arg)

let loadgen_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(
      value & opt (port_conv ()) 11311
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let clients =
    Arg.(
      value & opt (pos_int "clients") 8
      & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let ops =
    Arg.(
      value & opt (pos_int "ops") 10_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Measured operations.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"OPS/S"
          ~doc:"Open-loop aggregate request rate; 0 (default) = closed \
                loop, --depth outstanding requests per connection.")
  in
  let depth =
    Arg.(
      value & opt (pos_int "depth") 1
      & info [ "depth" ] ~docv:"N"
          ~doc:"Closed-loop pipeline depth: in-flight requests kept per \
                connection (1 = classic closed loop; higher pipelines).")
  in
  let records =
    Arg.(
      value & opt (pos_int "records") 1024
      & info [ "records" ] ~docv:"N"
          ~doc:"Key-space size (and preload size).")
  in
  let vsize =
    Arg.(
      value & opt (pos_int "vsize") 32
      & info [ "vsize" ] ~docv:"BYTES" ~doc:"Value bytes per set.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let read_prop =
    Arg.(
      value & opt float 0.95
      & info [ "read-prop" ] ~docv:"P"
          ~doc:"Read proportion of the YCSB mix (default 0.95 = workload B).")
  in
  let mix =
    Arg.(
      value
      & opt
          (enum
             [ ("custom", Loadgen.Custom); ("ycsb-e", Loadgen.Ycsb_e);
               ("ycsb-f", Loadgen.Ycsb_f) ])
          Loadgen.Custom
      & info [ "mix" ] ~docv:"MIX"
          ~doc:"Workload mix: $(b,custom) (the --read-prop dial), \
                $(b,ycsb-e) (95% range scans / 5% inserts) or \
                $(b,ycsb-f) (50% reads / 50% read-modify-writes driven \
                as getv+cas).")
  in
  let scan_len =
    Arg.(
      value & opt (pos_int "scan-len") 16
      & info [ "scan-len" ] ~docv:"N"
          ~doc:"Maximum requested scan length in the ycsb-e mix \
                (lengths are uniform in [1, N]).")
  in
  let no_preload =
    Arg.(
      value & flag
      & info [ "no-preload" ]
          ~doc:"Skip the unmeasured preload phase (useful against an \
                already-loaded server).")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Send the 'shutdown' verb when done: the server drains \
                gracefully and exits.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the result as a JSON record to FILE.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running privagic server with a YCSB-style workload \
             and report throughput and latency percentiles")
    Term.(const loadgen_action $ host $ port $ clients $ ops $ rate $ depth
          $ records $ vsize $ seed $ read_prop $ mix $ scan_len $ no_preload
          $ shutdown $ out)

let () =
  let doc = "automatic code partitioning with explicit secure typing" in
  let info = Cmd.info "privagic" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
                     [ check_cmd; ir_cmd; partition_cmd; tcb_cmd; run_cmd;
                       profile_cmd; graph_cmd; dataflow_cmd;
                       experiments_cmd; bench_cmd; fuzz_cmd; serve_cmd;
                       loadgen_cmd ]))
