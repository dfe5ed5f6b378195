(* The observability layer (DESIGN.md §8.12): rings (wraparound, tracks,
   interned names, deterministic merge, concurrent writers, the
   zero-allocation record path), lane arithmetic, the readers over a
   traced VM's ring — the critical path tiles [0, makespan] exactly (its
   lengths sum to [Sched.max_clock]), the fig6 Chrome trace is golden and
   valid JSON — the registry's exposition grammar and 'stats metrics'. *)

module Obs = Privagic_obs
module Ring = Privagic_obs.Ring
module Ev = Privagic_obs.Ev
module Lane = Privagic_obs.Lane
module Phase = Privagic_obs.Phase
module Registry = Privagic_obs.Registry
module Metrics = Privagic_obs.Metrics
module Cp = Privagic_obs.Critical_path
module Protocol = Privagic_server.Protocol
module Vclock = Privagic_runtime.Vclock
module Sched = Privagic_runtime.Sched
module Msqueue = Privagic_runtime.Msqueue
module P = Privagic_workloads.Programs
module Sgx = Privagic_sgx
open Privagic_secure
open Privagic_vm

let check_contains what needle hay =
  if not (Helpers.contains hay needle) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle hay

(* --- ring: overwrite-oldest wraparound --- *)

let test_ring_wraparound () =
  let r = Ring.create ~cap:8 ~id:3 ~label:"w" () in
  Alcotest.(check int) "capacity" 8 (Ring.capacity r);
  for i = 0 to 19 do
    Ring.record r ~track:(i mod 3) ~code:1 ~arg:i ~ts:(100 + i)
  done;
  Alcotest.(check int) "total" 20 (Ring.total r);
  Alcotest.(check int) "length" 8 (Ring.length r);
  Alcotest.(check int) "dropped" 12 (Ring.dropped r);
  let evs = Ring.events [ r ] in
  Alcotest.(check int) "surviving" 8 (Array.length evs);
  Array.iteri
    (fun k e ->
      Alcotest.(check int) "oldest-first arg" (12 + k) e.Ring.ev_arg;
      Alcotest.(check int) "seq" (12 + k) e.Ring.ev_seq;
      Alcotest.(check (float 0.0)) "ts" (float_of_int (112 + k)) e.Ring.ev_at;
      Alcotest.(check int) "track" ((12 + k) mod 3) e.Ring.ev_track)
    evs

(* --- ring: tracks, interned names, global numbering across rings --- *)

let test_ring_tracks_and_names () =
  let a = Ring.create ~cap:16 ~clock:Ring.Virtual ~id:1 ~label:"s1" () in
  let u = Ring.track a "t0/U" in
  let b' = Ring.track a "t0/blue" in
  Alcotest.(check (pair int int)) "dense tracks" (0, 1) (u, b');
  let main = Ring.intern a "main#blue" in
  Alcotest.(check int) "interning is idempotent" main
    (Ring.intern a "main#blue");
  Alcotest.(check bool) "distinct names" true (Ring.intern a "g#blue" <> main);
  Ring.record a ~track:b' ~code:Ev.(code Chunk_begin) ~arg:main
    ~ts:(Ring.of_cycles 600.5);
  Ring.record a ~track:b' ~code:Ev.(code Fiber_spawn) ~arg:u
    ~ts:(Ring.of_cycles 0.0);
  (* a single-writer ring: no registered track, its label names track 0 *)
  let w = Ring.create ~cap:16 ~id:0 ~label:"s0/srv" () in
  Ring.record w ~track:0 ~code:Ev.(code Req_begin)
    ~arg:(Ring.intern w "get") ~ts:7;
  let rings = [ a; w ] in
  Alcotest.(check (array (pair string bool))) "global tracks, in ring-id order"
    [| ("s0/srv", false); ("s1/t0/U", true); ("s1/t0/blue", true) |]
    (Array.map (fun (n, c) -> (n, c = Ring.Virtual)) (Ring.tracks rings));
  let evs = Ring.events rings in
  let find k =
    List.find (fun (e : Ring.event) -> e.Ring.ev_kind = k) (Array.to_list evs)
  in
  let cb = find Ev.Chunk_begin in
  Alcotest.(check string) "name resolved" "main#blue" cb.Ring.ev_name;
  Alcotest.(check (float 0.0)) "virtual time exact" 600.5 cb.Ring.ev_at;
  Alcotest.(check int) "track shifted past ring 0" 2 cb.Ring.ev_track;
  Alcotest.(check int) "spawn parent shifted too" 1
    (find Ev.Fiber_spawn).Ring.ev_arg;
  let rq = find Ev.Req_begin in
  Alcotest.(check (pair string int)) "wall ring keeps track 0" ("get", 0)
    (rq.Ring.ev_name, rq.Ring.ev_track);
  Alcotest.(check bool) "clock domains apart" true
    (rq.Ring.ev_clock = Ring.Wall && cb.Ring.ev_clock = Ring.Virtual)

(* --- ev: every kind has a code that decodes back to it --- *)

let test_ev_codes () =
  let kinds =
    List.map (fun p -> Ev.Phase p) Phase.all
    @ List.map fst (Array.to_list Ev.points)
  in
  List.iter
    (fun k ->
      if Ev.of_code (Ev.code k) <> k then
        Alcotest.failf "%s does not round-trip" (Ev.name k))
    kinds;
  let codes = List.sort_uniq compare (List.map Ev.code kinds) in
  Alcotest.(check int) "codes are distinct" (List.length kinds)
    (List.length codes)

let test_ring_cap_rounding () =
  let r = Ring.create ~cap:5 ~id:0 ~label:"r" () in
  Alcotest.(check int) "5 -> 8" 8 (Ring.capacity r);
  let r = Ring.create ~cap:1 ~id:0 ~label:"r" () in
  Alcotest.(check int) "1 -> 2" 2 (Ring.capacity r)

(* --- ring: concurrent writers, deterministic post-merge order --- *)

let test_concurrent_merge () =
  let n = 1000 in
  let mk id = Ring.create ~cap:2048 ~id ~label:(string_of_int id) () in
  let rings = [ mk 0; mk 1; mk 2 ] in
  let doms =
    List.map
      (fun r ->
        Domain.spawn (fun () ->
            (* deliberately colliding timestamps across rings: the
               (ring, seq) tiebreak must make the merge total *)
            for i = 0 to n - 1 do
              Ring.record r ~track:0 ~code:2 ~arg:(Ring.id r) ~ts:i
            done))
      rings
  in
  List.iter Domain.join doms;
  let a = Ring.merge rings in
  let b = Ring.merge rings in
  let c = Ring.merge [ List.nth rings 2; List.nth rings 0; List.nth rings 1 ] in
  Alcotest.(check int) "all events survive" (3 * n) (Array.length a);
  Alcotest.(check bool) "merge is reproducible" true (a = b);
  Alcotest.(check bool) "merge is input-order independent" true (a = c);
  Array.iteri
    (fun k e ->
      if k > 0 then begin
        let p = a.(k - 1) in
        let ordered =
          p.Ring.ev_at < e.Ring.ev_at
          || (p.Ring.ev_at = e.Ring.ev_at
             && (p.Ring.ev_ring < e.Ring.ev_ring
                || (p.Ring.ev_ring = e.Ring.ev_ring
                   && p.Ring.ev_seq < e.Ring.ev_seq)))
        in
        if not ordered then
          Alcotest.failf "merge not strictly ordered at %d" k
      end)
    a

(* --- ring: zero allocation on the record path --- *)

let test_zero_alloc_record () =
  let minor_words_for n =
    let r = Ring.create ~cap:64 ~id:9 ~label:"z" () in
    Ring.record r ~track:0 ~code:0 ~arg:0 ~ts:0;
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      Ring.record r ~track:(i land 3) ~code:1 ~arg:i ~ts:i
    done;
    Gc.minor_words () -. w0
  in
  (* both measurements carry the same constant harness cost (the boxed
     floats of Gc.minor_words itself); any per-record allocation would
     make the 50x loop strictly larger *)
  let small = minor_words_for 1_000 in
  let large = minor_words_for 50_000 in
  Alcotest.(check (float 0.0)) "per-record allocation is zero" small large

(* --- lane: phase accounting arithmetic --- *)

let test_lane_accounting () =
  let l = Lane.create ~id:7 ~label:"d0/blue" ~now_us:0 () in
  Alcotest.(check int) "starts in queue-wait"
    (Phase.index Phase.Queue_wait) (Lane.current l);
  Lane.enter l Phase.Run ~now_us:100;
  Lane.enter l Phase.Run ~now_us:120 (* same phase: no-op *);
  Lane.enter l Phase.Queue_wait ~now_us:250;
  Lane.enter l Phase.Park ~now_us:400;
  let b = Lane.snapshot l ~now_us:1000 in
  Alcotest.(check int) "wall" 1000 b.Lane.b_wall_us;
  Alcotest.(check string) "label" "d0/blue" b.Lane.b_label;
  let us p = b.Lane.b_phase_us.(Phase.index p) in
  Alcotest.(check int) "run" 150 (us Phase.Run);
  Alcotest.(check int) "queue-wait" 250 (us Phase.Queue_wait);
  Alcotest.(check int) "park (open tail closed)" 600 (us Phase.Park);
  Alcotest.(check int) "pump-wait" 0 (us Phase.Pump_wait);
  Alcotest.(check int) "barrier" 0 (us Phase.Barrier);
  Alcotest.(check (float 1e-9)) "coverage" 1.0 (Lane.coverage b);
  Alcotest.(check string) "dominant stall" "park"
    (Phase.name (Lane.dominant_stall b));
  (* the three transitions each dropped a phase-entry event *)
  Alcotest.(check int) "ring events" 3 (Ring.total (Lane.ring l))

let test_metrics_histogram () =
  let h = Metrics.histogram "lat" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 1024.0 ];
  Alcotest.(check int) "count" 5 h.Metrics.h_count;
  Alcotest.(check (float 0.001)) "mean" 207.8 (Metrics.mean h);
  let p50 = Metrics.percentile h 0.5 in
  Alcotest.(check bool) "p50 in the middle decade" true
    (p50 >= 1.0 && p50 <= 8.0);
  Alcotest.(check (float 0.001)) "p100 clamps to max" 1024.0
    (Metrics.percentile h 1.0);
  Alcotest.(check (float 0.001)) "p0 clamps to min" 1.0
    (Metrics.percentile h 0.0)

(* --- a tiny JSON validator (no json library in the tree) --- *)

exception Bad_json of string

let validate_json (s : string) =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let is_in chars = String.contains chars (peek ()) in
  let rec ws () = if is_in " \t\n\r" then (incr pos; ws ()) in
  let eat c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> items '}' (fun () -> str (); ws (); eat ':'; value ())
    | '[' -> items ']' value
    | '"' -> str ()
    | 't' -> String.iter eat "true"
    | 'f' -> String.iter eat "false"
    | 'n' -> String.iter eat "null"
    | '-' | '0' .. '9' -> while is_in "+-.eE0123456789" do incr pos done
    | _ -> fail "value"
  and items close item =
    incr pos (* the opening bracket *);
    ws ();
    if peek () = close then incr pos
    else
      let rec more () =
        item ();
        ws ();
        match peek () with
        | ',' -> incr pos; ws (); more ()
        | c when c = close -> incr pos
        | _ -> fail "separator"
      in
      more ()
  and str () =
    eat '"';
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if is_in "\"\\/bfnrt" then incr pos
        else if peek () = 'u' then begin
          incr pos;
          for _ = 1 to 4 do
            if is_in "0123456789abcdefABCDEF" then incr pos
            else fail "unicode escape"
          done
        end
        else fail "escape";
        go ()
      | c when Char.code c >= 0x20 -> incr pos; go ()
      | _ -> fail "string"
    in
    go ()
  in
  value ();
  ws ();
  if !pos <> n then fail "trailing garbage"

(* --- the partitioned fig6 run: trace + critical path --- *)

let vm_ring () =
  Ring.create ~cap:(1 lsl 16) ~clock:Ring.Virtual ~id:0 ~label:"" ()

let fig6_ring () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let r = vm_ring () in
  Pinterp.attach_ring pt r;
  let res = Pinterp.call_entry pt "main" [] in
  (pt, r, res)

let test_chrome_trace_valid_json () =
  let _, r, _ = fig6_ring () in
  let json = Obs.Chrome_trace.to_string [ r ] in
  (match validate_json json with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg);
  Alcotest.(check bool) "has traceEvents" true
    (Helpers.contains json "\"traceEvents\"");
  (* one thread_name metadata record per worker: U, blue, red *)
  let count_sub needle hay =
    let ln = String.length needle and lh = String.length hay in
    let c = ref 0 in
    for i = 0 to lh - ln do
      if String.sub hay i ln = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "one track per worker" 3
    (count_sub "\"thread_name\"" json);
  Alcotest.(check bool) "has flow starts" true
    (Helpers.contains json "\"ph\":\"s\"");
  Alcotest.(check bool) "has flow finishes" true
    (Helpers.contains json "\"ph\":\"f\"");
  Alcotest.(check bool) "has chunk spans" true
    (Helpers.contains json "\"ph\":\"B\"")

let test_chrome_trace_golden () =
  (* the virtual-time execution is deterministic, so the exported trace of
     the two-enclave fig6 program is byte-stable *)
  let _, r, _ = fig6_ring () in
  let json = Obs.Chrome_trace.to_string [ r ] in
  (* found in the sandbox under [dune runtest], in test/ under [dune exec]
     from the repo root *)
  let golden_file =
    List.find Sys.file_exists
      [ "golden_fig6_trace.json"; "test/golden_fig6_trace.json" ]
  in
  let ic = open_in golden_file in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if String.trim json <> String.trim golden then begin
    let oc = open_out (golden_file ^ ".actual") in
    output_string oc json;
    close_out oc;
    Alcotest.failf
      "trace deviates from %s (actual written next to it; promote it if \
       the change is intended)"
      golden_file
  end

let test_critical_path_fig6 () =
  let pt, r, res = fig6_ring () in
  let cp = Cp.analyze [ r ] in
  let makespan = Sched.max_clock pt.Pinterp.sched in
  Alcotest.(check bool) "walk complete" true cp.Cp.cp_complete;
  Alcotest.(check (float 0.001)) "path total = scheduler makespan" makespan
    (Cp.total cp);
  Alcotest.(check (float 0.001)) "analyzer makespan agrees" makespan
    cp.Cp.cp_makespan;
  Alcotest.(check (float 0.001)) "request latency is the makespan"
    makespan res.Pinterp.completed_at;
  (* the three-partition program has cross-partition hops on the path *)
  Alcotest.(check bool) "more than one worker on the path" true
    (List.length cp.Cp.cp_by_track > 1)

(* property: for any op sequence against the partitioned hashmap, the
   critical path tiles [0, makespan] and sums to Sched.max_clock *)
let hashmap_plan =
  lazy
    (Helpers.plan_of ~mode:Mode.Hardened
       (P.hashmap ~nbuckets:16 ~vsize:32 `Colored))

let prop_critical_path_tiles =
  QCheck.Test.make ~count:20 ~name:"critical path sums to Sched.max_clock"
    QCheck.(list_of_size Gen.(1 -- 12) (pair bool (int_bound 31)))
    (fun ops ->
      let pt =
        Pinterp.create ~config:Sgx.Config.machine_test (Lazy.force hashmap_plan)
      in
      let r = vm_ring () in
      Pinterp.attach_ring pt r;
      let vbuf = Heap.alloc pt.Pinterp.exec.Exec.heap Heap.Unsafe 64 in
      List.iter
        (fun (is_put, k) ->
          let entry = if is_put then "hm_put" else "hm_get" in
          ignore
            (Pinterp.call_entry pt entry
               [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
        ops;
      let cp = Cp.analyze [ r ] in
      let makespan = Sched.max_clock pt.Pinterp.sched in
      cp.Cp.cp_complete
      && Float.abs (Cp.total cp -. makespan) <= 1e-3
      && Float.abs (cp.Cp.cp_makespan -. makespan) <= 1e-3)

(* --- msqueue under adversarial scheduler interleavings --- *)

(* Each generated case is a set of fibers with per-op virtual delays; the
   deterministic scheduler turns the delays into an interleaving (ties
   broken by spawn order, so every seed is reproducible). Because fibers
   are cooperative, the queue must agree with a functional FIFO model at
   every step of the interleaved history. *)
let prop_queue_linearizable =
  let case =
    QCheck.(
      list_of_size Gen.(1 -- 4)
        (list_of_size Gen.(0 -- 8) (pair (int_bound 50) bool)))
  in
  QCheck.Test.make ~count:100
    ~name:"msqueue FIFO under adversarial interleavings" case
    (fun fibers ->
      let q = Msqueue.create () in
      let model = Queue.create () in
      let ok = ref true in
      let sched = Sched.create () in
      let next_val = ref 0 in
      List.iteri
        (fun i ops ->
          ignore
            (Sched.spawn sched ~name:(lazy (Printf.sprintf "fiber-%d" i))
               ~at:(float_of_int (i mod 2))
               (fun clock ->
                 List.iter
                   (fun (delay, is_push) ->
                     (* the delay schedules this op among the other
                        fibers' ops: the adversarial interleaving *)
                     Vclock.add clock (float_of_int delay);
                     Sched.block (fun () -> true) (fun () -> (Vclock.get clock));
                     if is_push then begin
                       let v = !next_val in
                       incr next_val;
                       Msqueue.push q v;
                       Queue.push v model
                     end
                     else begin
                       let expected =
                         if Queue.is_empty model then None
                         else Some (Queue.pop model)
                       in
                       if Msqueue.pop q <> expected then ok := false
                     end)
                   ops)))
        fibers;
      (match Sched.run sched with
      | Sched.Completed -> ()
      | _ -> ok := false);
      !ok && Msqueue.length q = Queue.length model)

(* --- summary sink --- *)

let test_summary_fig6 () =
  let _, r, _ = fig6_ring () in
  let s = Obs.Summary.of_rings [ r ] in
  Alcotest.(check int) "no events dropped" 0 s.Obs.Summary.dropped;
  Alcotest.(check bool) "events recorded" true (s.Obs.Summary.event_count > 0);
  Alcotest.(check bool) "cross-partition messages counted" true
    (List.assoc "messages" s.Obs.Summary.counters > 0);
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "occupancy within [0, 1]" true
        (f >= 0.0 && f <= 1.0 +. 1e-9))
    s.Obs.Summary.occupancy

(* untraced: no ring anywhere in the VM, and tracing does not perturb
   the virtual-time result *)
let test_untraced_has_no_ring () =
  let pt, _, res = fig6_ring () in
  let pt' = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  Alcotest.(check bool) "no ring in the VM, scheduler or machine" true
    (pt'.Pinterp.ring = None && pt'.Pinterp.sched.Sched.ring = None
    && (Pinterp.machine pt').Sgx.Machine.tap = None);
  Alcotest.(check bool) "traced VM has one" true (pt.Pinterp.ring <> None);
  let res' = Pinterp.call_entry pt' "main" [] in
  Alcotest.(check (float 0.001)) "identical virtual time"
    res'.Pinterp.latency_cycles res.Pinterp.latency_cycles

(* --- registry: exposition grammar --- *)

let test_registry_exposition () =
  let reg = Registry.create () in
  let c =
    Registry.counter reg
      ~labels:[ ("op", "get") ]
      ~help:"Requests served" "test_ops_total"
  in
  for _ = 1 to 7 do
    Atomic.incr c
  done;
  Registry.gauge reg ~help:"Queue depth" "test_depth" (fun () -> 3.5);
  Registry.multi_gauge reg ~help:"Per-lane series" "test_lane" (fun () ->
      [ ([ ("lane", "0") ], 1.0); ([ ("lane", "1") ], 2.0) ]);
  Registry.summary reg ~help:"Latency" "test_lat" (fun () ->
      {
        Metrics.n = 4;
        p_mean = 2.5;
        p50 = 2.0;
        p95 = 4.0;
        p99 = 4.0;
        p999 = 4.0;
        p_max = 4.0;
      });
  let text = Registry.expose reg in
  check_contains "counter type" "# TYPE test_ops_total counter" text;
  check_contains "counter sample" "test_ops_total{op=\"get\"} 7" text;
  check_contains "gauge type" "# TYPE test_depth gauge" text;
  check_contains "gauge sample" "test_depth 3.5" text;
  check_contains "multi type" "# TYPE test_lane gauge" text;
  check_contains "multi sample 0" "test_lane{lane=\"0\"} 1" text;
  check_contains "multi sample 1" "test_lane{lane=\"1\"} 2" text;
  check_contains "summary type" "# TYPE test_lat summary" text;
  check_contains "p999 quantile" "test_lat{quantile=\"0.999\"} 4" text;
  check_contains "max quantile" "test_lat{quantile=\"1\"} 4" text;
  check_contains "sum" "test_lat_sum 10" text;
  check_contains "count" "test_lat_count 4" text;
  (* idempotent counter registration returns the same atomic *)
  let c' =
    Registry.counter reg
      ~labels:[ ("op", "get") ]
      ~help:"Requests served" "test_ops_total"
  in
  Alcotest.(check bool) "same counter" true (c == c')

let test_registry_label_escaping () =
  let reg = Registry.create () in
  Registry.gauge reg
    ~labels:[ ("k", "a\"b\\c\nd") ]
    ~help:"" "test_esc" (fun () -> 1.0);
  check_contains "escaped label" "test_esc{k=\"a\\\"b\\\\c\\nd\"} 1"
    (Registry.expose reg)

(* --- metrics: the latency quartet gained p99.9 and max --- *)

let test_pctiles_p999 () =
  let h = Metrics.histogram "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  let p = Metrics.pctiles h in
  Alcotest.(check int) "n" 1000 p.Metrics.n;
  Alcotest.(check (float 1e-9)) "max is exact" 1000.0 p.Metrics.p_max;
  let ordered =
    p.Metrics.p50 <= p.Metrics.p95
    && p.Metrics.p95 <= p.Metrics.p99
    && p.Metrics.p99 <= p.Metrics.p999
    && p.Metrics.p999 <= p.Metrics.p_max
  in
  Alcotest.(check bool) "p50 <= p95 <= p99 <= p99.9 <= max" true ordered

(* --- protocol: the stats-metrics verb --- *)

let test_protocol_stats_metrics () =
  let rd = Protocol.reader () in
  let s = Bytes.of_string "stats metrics\r\n" in
  (match Protocol.feed rd s (Bytes.length s) with
  | [ `Req Protocol.Stats_metrics ] -> ()
  | _ -> Alcotest.fail "expected Stats_metrics");
  Alcotest.(check string) "round-trips" "stats metrics\r\n"
    (Protocol.render_request Protocol.Stats_metrics);
  let out = Protocol.render (Protocol.Metrics_reply "a 1\nb 2\n") in
  Alcotest.(check string) "exposition + END" "a 1\nb 2\nEND\r\n" out;
  Alcotest.(check string) "trailing newline is normalized" "a 1\nEND\r\n"
    (Protocol.render (Protocol.Metrics_reply "a 1"))

let suite =
  [
    Alcotest.test_case "ring wraparound overwrites oldest" `Quick
      test_ring_wraparound;
    Alcotest.test_case "ring capacity rounds to pow2" `Quick
      test_ring_cap_rounding;
    Alcotest.test_case "ring tracks and interned names" `Quick
      test_ring_tracks_and_names;
    Alcotest.test_case "event codes round-trip" `Quick test_ev_codes;
    Alcotest.test_case "concurrent writers merge deterministically" `Quick
      test_concurrent_merge;
    Alcotest.test_case "record path allocates nothing" `Quick
      test_zero_alloc_record;
    Alcotest.test_case "lane phase accounting" `Quick test_lane_accounting;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_trace_valid_json;
    Alcotest.test_case "chrome trace golden (two-enclave)" `Quick
      test_chrome_trace_golden;
    Alcotest.test_case "critical path fig6" `Quick test_critical_path_fig6;
    QCheck_alcotest.to_alcotest prop_critical_path_tiles;
    QCheck_alcotest.to_alcotest prop_queue_linearizable;
    Alcotest.test_case "summary fig6" `Quick test_summary_fig6;
    Alcotest.test_case "untraced run has no ring" `Quick
      test_untraced_has_no_ring;
    Alcotest.test_case "registry exposition grammar" `Quick
      test_registry_exposition;
    Alcotest.test_case "registry label escaping" `Quick
      test_registry_label_escaping;
    Alcotest.test_case "pctiles p99.9/max" `Quick test_pctiles_p999;
    Alcotest.test_case "protocol stats metrics" `Quick
      test_protocol_stats_metrics;
  ]
