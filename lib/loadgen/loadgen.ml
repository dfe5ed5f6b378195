(* See the .mli for the load models. One thread of plain select I/O: the
   generator must not be the bottleneck's bottleneck — at the rates the
   simulated store sustains (a few kops/s), one thread multiplexing a few
   dozen sockets has orders of magnitude of headroom. *)

module Metrics = Privagic_obs.Metrics
module Ycsb = Privagic_workloads.Ycsb
module Protocol = Privagic_server.Protocol

type mix = Custom | Ycsb_e | Ycsb_f

let mix_name = function
  | Custom -> "custom"
  | Ycsb_e -> "ycsb-e"
  | Ycsb_f -> "ycsb-f"

type config = {
  host : string;
  port : int;
  clients : int;
  ops : int;
  rate : float;
  depth : int;
  record_count : int;
  vsize : int;
  seed : int;
  read_prop : float;
  mix : mix;
  scan_len : int;
  preload : bool;
  shutdown : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 11311;
    clients = 8;
    ops = 10_000;
    rate = 0.0;
    depth = 1;
    record_count = 1024;
    vsize = 32;
    seed = 42;
    read_prop = 0.95;
    mix = Custom;
    scan_len = 16;
    preload = true;
    shutdown = false;
  }

type result = {
  r_ops_ok : int;
  r_busy : int;
  r_errors : int;
  r_hits : int;
  r_misses : int;
  r_scans : int;
  r_scan_items : int;
  r_rmw_conflicts : int;
  r_preload_ops : int;
  r_wall_seconds : float;
  r_throughput_kops : float;
  r_target_rate : float;
  r_latency : Metrics.pctiles;
}

(* ------------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  rd : Protocol.resp_reader;
  out : Buffer.t;                (* bytes not yet handed to the kernel *)
  mutable out_off : int;
  (* sent requests awaiting their response, in send order: the server
     answers each connection strictly in request order *)
  outstanding : (float * Protocol.request) Queue.t;
}

let connect cfg i =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.set_nonblock fd;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "loadgen: cannot connect client %d to %s:%d (%s)" i
          cfg.host cfg.port (Printexc.to_string e)));
  { fd; rd = Protocol.resp_reader (); out = Buffer.create 512;
    out_off = 0; outstanding = Queue.create () }

let send c ~sched_at req =
  Buffer.add_string c.out (Protocol.render_request req);
  Queue.push (sched_at, req) c.outstanding

let flush_out c =
  let s = Buffer.contents c.out in
  let len = String.length s in
  if c.out_off < len then begin
    match
      Unix.write c.fd (Bytes.unsafe_of_string s) c.out_off (len - c.out_off)
    with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off >= len then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  end

type phase_counts = {
  mutable ok : int;
  mutable busy : int;
  mutable errors : int;
  mutable hits : int;
  mutable misses : int;
  mutable scans : int;
  mutable scan_items : int;
  mutable conflicts : int;
}

let fresh_counts () =
  { ok = 0; busy = 0; errors = 0; hits = 0; misses = 0; scans = 0;
    scan_items = 0; conflicts = 0 }

(* Per-connection pipelining bound in open loop: keeps memory finite when
   the offered rate exceeds the service rate. Far above anything a closed
   loop creates (1). *)
let max_outstanding = 128

exception Dead of string

(* Drive [total] requests from [next_req] to completion across the
   clients. [rate] = 0: closed loop, one outstanding per connection;
   [rate] > 0: open loop at the aggregate rate.

   An RMW op issues as [getv]; its [Version] answer does not complete
   the op but chains the [cas] second leg behind the same connection,
   keeping the original schedule time — the recorded latency spans the
   whole read-modify-write (the CO-free convention extends across
   legs). Only the [cas] answer counts the op. *)
let run_phase cfg clients ~total ~rate ~(next_req : unit -> Protocol.request)
    ~(hist : Metrics.histogram option) (counts : phase_counts) =
  let n = Array.length clients in
  let depth = max 1 cfg.depth in
  let start = Unix.gettimeofday () in
  let issued = ref 0 and completed = ref 0 in
  let next_client = ref 0 in
  let last_progress = ref start in
  let buf = Bytes.create 65536 in
  let complete () =
    incr completed;
    last_progress := Unix.gettimeofday ()
  in
  let observe sched_at =
    match hist with
    | Some h ->
      Metrics.observe h ((Unix.gettimeofday () -. sched_at) *. 1e6)
    | None -> ()
  in
  while !completed < total do
    let now = Unix.gettimeofday () in
    (* issue what is due *)
    if rate <= 0.0 then
      Array.iter
        (fun c ->
          (* closed loop with pipelining: keep [depth] requests in
             flight per connection, refilled as responses land *)
          while !issued < total && Queue.length c.outstanding < depth do
            incr issued;
            send c ~sched_at:(Unix.gettimeofday ()) (next_req ())
          done)
        clients
    else begin
      let due () = start +. (float_of_int !issued /. rate) in
      let guard = ref 0 in
      while !issued < total && due () <= now && !guard < 4096 do
        (* round-robin over connections with pipeline headroom *)
        let placed = ref false in
        let tries = ref 0 in
        while (not !placed) && !tries < n do
          let c = clients.(!next_client mod n) in
          incr next_client;
          incr tries;
          if Queue.length c.outstanding < max_outstanding then begin
            send c ~sched_at:(due ()) (next_req ());
            incr issued;
            placed := true
          end
        done;
        if not !placed then guard := 4096 (* all pipelines full: back off *)
        else incr guard
      done
    end;
    (* write, then wait for readability / writability *)
    Array.iter flush_out clients;
    let rds = Array.to_list (Array.map (fun c -> c.fd) clients) in
    let wrs =
      Array.to_list clients
      |> List.filter_map (fun c ->
             if Buffer.length c.out > c.out_off then Some c.fd else None)
    in
    let timeout =
      if rate > 0.0 && !issued < total then
        Float.max 0.001 (Float.min 0.05 (start +. (float_of_int !issued /. rate) -. now))
      else 0.05
    in
    (match Unix.select rds wrs [] timeout with
    | readable, _, _ ->
      Array.iter
        (fun c ->
          if List.mem c.fd readable then
            match Unix.read c.fd buf 0 (Bytes.length buf) with
            | 0 -> raise (Dead "server closed the connection mid-run")
            | nread ->
              List.iter
                (fun resp ->
                  match Queue.take_opt c.outstanding with
                  | None ->
                    (* unsolicited line (e.g. trailing OK): ignore *)
                    ()
                  | Some (sched_at, req) -> (
                    match resp with
                    | Protocol.Busy ->
                      counts.busy <- counts.busy + 1;
                      last_progress := Unix.gettimeofday ();
                      (* retry behind this connection's pipeline, keeping
                         the original schedule time: shed work pays its
                         full latency *)
                      send c ~sched_at req
                    | other -> (
                      match (req, other) with
                      | Protocol.Getv k,
                        Protocol.Version { v_ver; v_val; _ } ->
                        (* RMW first leg: account the read, chain the
                           guarded write on the same schedule time *)
                        (match v_val with
                        | Some _ -> counts.hits <- counts.hits + 1
                        | None -> counts.misses <- counts.misses + 1);
                        last_progress := Unix.gettimeofday ();
                        send c ~sched_at
                          (Protocol.Cas
                             { c_key = k; c_ver = v_ver;
                               c_val = Ycsb.value_for ~size:cfg.vsize k })
                      | Protocol.Cas _, Protocol.Stored ->
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | Protocol.Cas _,
                        (Protocol.Cas_conflict _ | Protocol.Not_found) ->
                        (* lost the race to a concurrent writer: the op
                           still completes (and pays its latency) *)
                        counts.conflicts <- counts.conflicts + 1;
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | Protocol.Scan _, Protocol.Scan_reply items ->
                        counts.scans <- counts.scans + 1;
                        counts.scan_items <-
                          counts.scan_items + List.length items;
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | _, Protocol.Value _ ->
                        counts.hits <- counts.hits + 1;
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | _, Protocol.Miss ->
                        counts.misses <- counts.misses + 1;
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | _, (Protocol.Stored | Protocol.Deleted
                           | Protocol.Not_found) ->
                        counts.ok <- counts.ok + 1;
                        complete (); observe sched_at
                      | _, _ ->
                        counts.errors <- counts.errors + 1;
                        complete (); observe sched_at)))
                (Protocol.feed_resp c.rd buf nread)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error (e, _, _) ->
              raise (Dead (Unix.error_message e)))
        clients
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    if Unix.gettimeofday () -. !last_progress > 60.0 then
      raise (Dead "no progress for 60 s")
  done;
  Unix.gettimeofday () -. start

(* ------------------------------------------------------------------ *)

let spec_of cfg =
  match cfg.mix with
  | Custom ->
    {
      Ycsb.record_count = cfg.record_count;
      operation_count = cfg.ops;
      read_proportion = cfg.read_prop;
      update_proportion = 1.0 -. cfg.read_prop;
      insert_proportion = 0.0;
      scan_proportion = 0.0;
      rmw_proportion = 0.0;
      max_scan_len = 1;
      distribution = Ycsb.Zipfian;
      value_size = cfg.vsize;
      seed = cfg.seed;
    }
  | Ycsb_e ->
    Ycsb.workload_e ~seed:cfg.seed ~max_scan_len:cfg.scan_len
      ~record_count:cfg.record_count ~operation_count:cfg.ops
      ~value_size:cfg.vsize ()
  | Ycsb_f ->
    Ycsb.workload_f ~seed:cfg.seed ~record_count:cfg.record_count
      ~operation_count:cfg.ops ~value_size:cfg.vsize ()

let run cfg =
  if cfg.clients < 1 then invalid_arg "loadgen: clients must be positive";
  if cfg.ops < 1 then invalid_arg "loadgen: ops must be positive";
  if cfg.scan_len < 1 then invalid_arg "loadgen: scan_len must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let clients = Array.init cfg.clients (connect cfg) in
  let close_all () =
    Array.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      clients
  in
  let hist = Metrics.histogram "latency (us)" in
  let counts = fresh_counts () in
  let finally f = try f () with e -> close_all (); raise e in
  finally @@ fun () ->
  (* preload: unmeasured closed-loop sets of the whole key space *)
  let preload_ops =
    if not cfg.preload then 0
    else begin
      let k = ref (-1) in
      let next_req () =
        incr k;
        Protocol.Set (!k, Ycsb.value_for ~size:cfg.vsize !k)
      in
      let pre = fresh_counts () in
      ignore
        (run_phase cfg clients ~total:cfg.record_count ~rate:0.0 ~next_req
           ~hist:None pre);
      if pre.errors > 0 then
        failwith
          (Printf.sprintf "loadgen: %d errors during preload" pre.errors);
      pre.ok
    end
  in
  (* measured phase: the YCSB mix *)
  let gen = Ycsb.create (spec_of cfg) in
  let next_req () =
    match Ycsb.next_op gen with
    | Ycsb.Read k -> Protocol.Get k
    | Ycsb.Update k | Ycsb.Insert k ->
      Protocol.Set (k, Ycsb.value_for ~size:cfg.vsize k)
    | Ycsb.Scan (k, len) ->
      (* a window of twice the requested length: sparse key spaces still
         return close to [len] items without walking to the end *)
      Protocol.Scan
        { sc_start = k; sc_stop = k + (2 * len);
          sc_limit = min len Protocol.max_scan_limit }
    | Ycsb.Rmw k -> Protocol.Getv k
  in
  let wall =
    try
      run_phase cfg clients ~total:cfg.ops ~rate:cfg.rate ~next_req
        ~hist:(Some hist) counts
    with Dead m -> failwith ("loadgen: " ^ m)
  in
  (if cfg.shutdown then begin
     (* ask the server to drain; it answers OK and then closes as part
        of the drain, so a short read-until-EOF is the clean goodbye *)
     let c = clients.(0) in
     Buffer.add_string c.out (Protocol.render_request Protocol.Shutdown);
     (try
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Buffer.length c.out > c.out_off
              && Unix.gettimeofday () < deadline do
          flush_out c;
          ignore (Unix.select [] [ c.fd ] [] 0.05)
        done
      with Unix.Unix_error _ -> ())
   end);
  close_all ();
  {
    r_ops_ok = counts.ok;
    r_busy = counts.busy;
    r_errors = counts.errors;
    r_hits = counts.hits;
    r_misses = counts.misses;
    r_scans = counts.scans;
    r_scan_items = counts.scan_items;
    r_rmw_conflicts = counts.conflicts;
    r_preload_ops = preload_ops;
    r_wall_seconds = wall;
    r_throughput_kops =
      (if wall > 0.0 then float_of_int counts.ok /. wall /. 1000.0 else 0.0);
    r_target_rate = cfg.rate;
    r_latency = Metrics.pctiles hist;
  }

(* ------------------------------------------------------------------ *)

let write_json ~path cfg r =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let l = r.r_latency in
  p "{\n";
  p "  \"bench\": \"server\",\n";
  p "  \"host\": \"%s\", \"port\": %d,\n" cfg.host cfg.port;
  p "  \"clients\": %d, \"ops\": %d, \"rate\": %g, \"depth\": %d,\n" cfg.clients
    cfg.ops cfg.rate (max 1 cfg.depth);
  p "  \"record_count\": %d, \"vsize\": %d, \"seed\": %d, \"read_prop\": %g,\n"
    cfg.record_count cfg.vsize cfg.seed cfg.read_prop;
  p "  \"mix\": \"%s\", \"scan_len\": %d,\n" (mix_name cfg.mix) cfg.scan_len;
  p "  \"preload_ops\": %d,\n" r.r_preload_ops;
  p "  \"ops_ok\": %d, \"busy\": %d, \"errors\": %d,\n" r.r_ops_ok r.r_busy
    r.r_errors;
  p "  \"hits\": %d, \"misses\": %d,\n" r.r_hits r.r_misses;
  p "  \"scans\": %d, \"scan_items\": %d, \"rmw_conflicts\": %d,\n" r.r_scans
    r.r_scan_items r.r_rmw_conflicts;
  p "  \"wall_seconds\": %.6f,\n" r.r_wall_seconds;
  p "  \"throughput_kops\": %.3f,\n" r.r_throughput_kops;
  (* open-loop honesty: the rate asked for next to the rate sustained —
     a saturated server shows up as achieved < target, not as a silently
     stretched run ("rate" above stays for existing readers) *)
  p "  \"target_rate_ops\": %g,\n" r.r_target_rate;
  p "  \"achieved_rate_ops\": %.1f,\n"
    (if r.r_wall_seconds > 0.0 then
       float_of_int r.r_ops_ok /. r.r_wall_seconds
     else 0.0);
  p "  \"latency_us\": { \"n\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"p999\": %.1f, \"max\": %.1f }\n"
    l.Metrics.n l.Metrics.p_mean l.Metrics.p50 l.Metrics.p95
    l.Metrics.p99 l.Metrics.p999 l.Metrics.p_max;
  p "}\n";
  close_out oc

let pp_result fmt r =
  let l = r.r_latency in
  Format.fprintf fmt
    "@[<v>ops ok        %d (hits %d, misses %d, busy retries %d, errors %d)@,\
     scans         %d (%d items), rmw conflicts %d@,\
     wall          %.3f s@,\
     throughput    %.2f kops/s%s@,\
     latency (us)  p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f  max %.0f  (mean %.0f)@]"
    r.r_ops_ok r.r_hits r.r_misses r.r_busy r.r_errors r.r_scans
    r.r_scan_items r.r_rmw_conflicts r.r_wall_seconds
    r.r_throughput_kops
    (if r.r_target_rate > 0.0 then
       Printf.sprintf " (target %.2f kops/s)" (r.r_target_rate /. 1000.0)
     else "")
    l.Metrics.p50 l.Metrics.p95 l.Metrics.p99 l.Metrics.p999
    l.Metrics.p_max l.Metrics.p_mean
