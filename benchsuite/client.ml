(* The load client. It runs in its own single-threaded process (the
   program process re-executes itself), so an OCaml minor GC in the
   server never pauses the client, and each side's CPU time comes from
   its own Unix.times.

   Every reply is checked against what the workload wrote: a get hit must
   return exactly [Ycsb.value_for k], a scan must return ascending keys
   inside its range, no more than its limit, with every preloaded key of
   the range present and, for secret-colored values, no value bytes.

   Closed loop: each connection keeps [depth] requests in flight, and a
   request's latency runs from its send. A request is due when the reply
   that freed its slot was parsed; send time minus due time is the
   client's own lateness. *)

module Ycsb = Privagic_workloads.Ycsb
module Protocol = Privagic_server.Protocol

type phase = Preload | Ops of int | Timed of float

type cfg = {
  port : int;
  conns : int;
  depth : int;
  mix : string;  (* "a", "b" or "e" *)
  records : int;
  vsize : int;
  seed : int;
  scan_len : int;
  secret : bool;  (* scan items of secret-colored values carry no bytes *)
  expect_hits : bool;  (* the data set fits the program cache: no misses *)
  phase : phase;
}

(* The command line that carries [cfg] to the child, and back. *)
let to_args c =
  [ "--port"; string_of_int c.port; "--conns"; string_of_int c.conns;
    "--depth"; string_of_int c.depth; "--mix"; c.mix;
    "--records"; string_of_int c.records; "--vsize"; string_of_int c.vsize;
    "--seed"; string_of_int c.seed; "--scan-len"; string_of_int c.scan_len;
    "--secret"; string_of_bool c.secret;
    "--expect-hits"; string_of_bool c.expect_hits;
    "--phase";
    (match c.phase with
    | Preload -> "preload"
    | Ops n -> "ops:" ^ string_of_int n
    | Timed s -> Printf.sprintf "timed:%.6f" s) ]

let of_args (get : string -> string) =
  let i k = int_of_string (get k) in
  { port = i "--port"; conns = i "--conns"; depth = i "--depth";
    mix = get "--mix"; records = i "--records"; vsize = i "--vsize";
    seed = i "--seed"; scan_len = i "--scan-len";
    secret = bool_of_string (get "--secret");
    expect_hits = bool_of_string (get "--expect-hits");
    phase =
      (match String.split_on_char ':' (get "--phase") with
      | [ "preload" ] -> Preload
      | [ "ops"; n ] -> Ops (int_of_string n)
      | [ "timed"; s ] -> Timed (float_of_string s)
      | _ -> invalid_arg "client: --phase") }

type kind = Read | Write

type inflight = {
  due : float;
  sent : float;
  req : Protocol.request;
  kind : kind;
}

type conn = {
  fd : Unix.file_descr;
  rd : Protocol.resp_reader;
  out : Buffer.t;
  mutable out_off : int;
  q : inflight Queue.t;
  freed : float Queue.t;  (* closed loop: when each free slot opened *)
}

type result = {
  mutable attempted : int;
  mutable completed : int;
  mutable errors : int;
  mutable wrong : int;
  mutable busy : int;
  reads : Samples.t;
  writes : Samples.t;
  late : Samples.t;
  mutable first_problem : string;
}

let spec cfg =
  let seed = cfg.seed and record_count = cfg.records and value_size = cfg.vsize in
  let operation_count = max_int in
  match cfg.mix with
  | "a" -> Ycsb.workload_a ~seed ~record_count ~operation_count ~value_size ()
  | "b" -> Ycsb.workload_b ~seed ~record_count ~operation_count ~value_size ()
  | "e" ->
    Ycsb.workload_e ~seed ~max_scan_len:cfg.scan_len ~record_count
      ~operation_count ~value_size ()
  | m -> invalid_arg ("client: unknown mix " ^ m)

(* The request stream of a phase. Scans ask for a window of twice their
   length, as the repository's load generator does. *)
let requests cfg =
  match cfg.phase with
  | Preload ->
    let k = ref (-1) in
    fun () ->
      incr k;
      (Protocol.Set (!k, Ycsb.value_for ~size:cfg.vsize !k), Write)
  | Ops _ | Timed _ ->
    let gen = Ycsb.create (spec cfg) in
    fun () ->
      match Ycsb.next_op gen with
      | Ycsb.Read k -> (Protocol.Get k, Read)
      | Ycsb.Update k | Ycsb.Insert k | Ycsb.Rmw k ->
        (Protocol.Set (k, Ycsb.value_for ~size:cfg.vsize k), Write)
      | Ycsb.Scan (k, len) ->
        ( Protocol.Scan
            { sc_start = k; sc_stop = k + (2 * len);
              sc_limit = min len Protocol.max_scan_limit },
          Read )

let problem r msg =
  if r.first_problem = "" then r.first_problem <- msg

(* [None] when the reply is right; otherwise what is wrong with it. *)
let check cfg req resp =
  match (req, resp) with
  | Protocol.Get k, Protocol.Value (k', v) ->
    if k' <> k then Some (Printf.sprintf "get %d answered key %d" k k')
    else if v <> Ycsb.value_for ~size:cfg.vsize k then
      Some (Printf.sprintf "get %d returned wrong bytes" k)
    else None
  | Protocol.Get k, Protocol.Miss ->
    if cfg.expect_hits then Some (Printf.sprintf "get %d missed" k) else None
  | Protocol.Set _, Protocol.Stored -> None
  | Protocol.Scan { sc_start; sc_stop; sc_limit }, Protocol.Scan_reply items ->
    let n = List.length items in
    let rec ascending = function
      | a :: (b :: _ as tl) -> a.Protocol.si_key < b.Protocol.si_key && ascending tl
      | _ -> true
    in
    let bad_item (it : Protocol.scan_item) =
      it.si_key < sc_start || it.si_key > sc_stop
      ||
      match it.si_val with
      | Some v -> cfg.secret || v <> Ycsb.value_for ~size:cfg.vsize it.si_key
      | None -> not cfg.secret
    in
    (* preloaded keys come first (inserts lie above them) and none of
       them is ever deleted: they must form the run sc_start, sc_start+1,
       ... cut only by the limit or the range *)
    let preloaded = List.filter (fun it -> it.Protocol.si_key < cfg.records) items in
    let expected = max 0 (min sc_stop (cfg.records - 1) - sc_start + 1) in
    let run_ok =
      List.for_all Fun.id (List.mapi (fun i it -> it.Protocol.si_key = sc_start + i) preloaded)
      && (n = sc_limit || List.length preloaded = expected)
    in
    if n > sc_limit then Some (Printf.sprintf "scan %d: %d items over limit %d" sc_start n sc_limit)
    else if not (ascending items) then Some (Printf.sprintf "scan %d: keys out of order" sc_start)
    else if List.exists bad_item items then
      Some (Printf.sprintf "scan %d: item out of range or with wrong value bytes" sc_start)
    else if not run_ok then Some (Printf.sprintf "scan %d: preloaded keys missing" sc_start)
    else None
  | _, Protocol.Error_msg m -> Some ("error reply: " ^ m)
  | _, _ -> Some "unexpected reply"

let connect cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
  Unix.set_nonblock fd;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; rd = Protocol.resp_reader (); out = Buffer.create 4096; out_off = 0;
    q = Queue.create (); freed = Queue.create () }

let send c f =
  Buffer.add_string c.out (Protocol.render_request f.req);
  Queue.push f c.q

let flush c =
  let len = Buffer.length c.out in
  if c.out_off < len then
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_off (len - c.out_off)
    with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off >= len then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

let run cfg =
  let conns = Array.init cfg.conns (fun _ -> connect cfg) in
  let r =
    { attempted = 0; completed = 0; errors = 0; wrong = 0; busy = 0; reads = Samples.create ();
      writes = Samples.create (); late = Samples.create (); first_problem = "" }
  in
  let next = requests cfg in
  let measured = match cfg.phase with Timed _ -> true | _ -> false in
  let limit = match cfg.phase with Preload -> cfg.records | Ops n -> n | Timed _ -> max_int in
  let cpu0 = Samples.cpu_seconds () in
  let start = Samples.now () in
  let stop_at = match cfg.phase with Timed s -> start +. s | _ -> infinity in
  let issuing () = r.attempted < limit && Samples.now () < stop_at in
  let outstanding () = Array.exists (fun c -> not (Queue.is_empty c.q)) conns in
  let last_progress = ref start in
  let buf = Bytes.create 65536 in
  let complete c (f : inflight) resp =
    let now = Samples.now () in
    last_progress := now;
    match resp with
    | Protocol.Busy ->
      (* shed: retried behind the same connection, keeping its times *)
      r.busy <- r.busy + 1;
      send c f
    | _ ->
      r.completed <- r.completed + 1;
      Queue.push now c.freed;
      (match check cfg f.req resp with
      | None -> ()
      | Some m ->
        (match resp with
        | Protocol.Error_msg _ -> r.errors <- r.errors + 1
        | _ -> r.wrong <- r.wrong + 1);
        problem r m);
      if measured then begin
        Samples.add (match f.kind with Read -> r.reads | Write -> r.writes) ((now -. f.sent) *. 1e6);
        Samples.add r.late ((f.sent -. f.due) *. 1e6)
      end
  in
  while issuing () || outstanding () do
    Array.iter
      (fun c ->
        while issuing () && Queue.length c.q < cfg.depth do
          let sent = Samples.now () in
          let due = Option.value (Queue.take_opt c.freed) ~default:sent in
          let req, kind = next () in
          r.attempted <- r.attempted + 1;
          send c { due; sent; req; kind }
        done)
      conns;
    Array.iter flush conns;
    let rds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let wrs =
      List.filter_map
        (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
        (Array.to_list conns)
    in
    (match Unix.select rds wrs [] 0.05 with
    | readable, _, _ ->
      Array.iter
        (fun c ->
          if List.mem c.fd readable then
            match Unix.read c.fd buf 0 (Bytes.length buf) with
            | 0 -> failwith "client: server closed a connection"
            | n ->
              List.iter
                (fun resp ->
                  match Queue.take_opt c.q with
                  | Some f -> complete c f resp
                  | None -> failwith "client: reply without a request")
                (Protocol.feed_resp c.rd buf n)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ())
        conns
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    if Samples.now () -. !last_progress > 20.0 then failwith "client: no reply for 20 s"
  done;
  let wall = Samples.now () -. start in
  let cpu = Samples.cpu_seconds () -. cpu0 in
  Array.iter (fun c -> Unix.close c.fd) conns;
  (r, wall, cpu)

(* One line for the program process; samples travel as statistics. *)
let report (r, wall, cpu) =
  let stats = Samples.summarize ~reads:r.reads ~writes:r.writes ~late:r.late in
  Printf.printf "RESULT attempted=%d completed=%d errors=%d wrong=%d busy=%d wall=%.9f cpu=%.9f %s\n"
    r.attempted r.completed r.errors r.wrong r.busy wall cpu
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.9g" k v) stats));
  if r.first_problem <> "" then Printf.printf "PROBLEM %s\n" r.first_problem;
  Stdlib.flush stdout
