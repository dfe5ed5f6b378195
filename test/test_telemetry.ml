(* The telemetry subsystem: recorder ring buffer, metrics, the Chrome
   trace sink, the critical-path analyzer, and the cross-layer wiring
   through the partitioned interpreter.

   The two load-bearing properties:
   - the critical path tiles [0, makespan] exactly, so its segment lengths
     sum to [Sched.max_clock] (checked on fig6 and under random op
     sequences against a partitioned hashmap);
   - the Chrome trace of a two-enclave program is deterministic
     (golden-file comparison) and valid JSON (a real parser, not a
     substring check). *)

module Tel = Privagic_telemetry
module Vclock = Privagic_runtime.Vclock
module Sched = Privagic_runtime.Sched
module Msqueue = Privagic_runtime.Msqueue
module P = Privagic_workloads.Programs
module Sgx = Privagic_sgx
open Privagic_secure
open Privagic_vm

(* --- recorder --- *)

let test_recorder_disabled () =
  Alcotest.(check bool) "null disabled" false (Tel.Recorder.enabled Tel.Recorder.null);
  Tel.Recorder.record Tel.Recorder.null ~at:1.0 ~track:0 Tel.Event.Barrier;
  Alcotest.(check int) "null records nothing" 0
    (Tel.Recorder.length Tel.Recorder.null);
  let r = Tel.Recorder.create ~capacity:8 () in
  Tel.Recorder.set_enabled r false;
  Tel.Recorder.record r ~at:1.0 ~track:0 Tel.Event.Barrier;
  Alcotest.(check int) "disabled records nothing" 0 (Tel.Recorder.length r)

let test_recorder_ring_wrap () =
  let r = Tel.Recorder.create ~capacity:4 () in
  for i = 0 to 9 do
    Tel.Recorder.record r ~at:(float_of_int i) ~track:i Tel.Event.Barrier
  done;
  Alcotest.(check int) "capacity retained" 4 (Tel.Recorder.length r);
  Alcotest.(check int) "dropped counted" 6 (Tel.Recorder.dropped r);
  let evs = Tel.Recorder.events r in
  Alcotest.(check (list int)) "oldest evicted, order kept" [ 6; 7; 8; 9 ]
    (Array.to_list (Array.map (fun (e : Tel.Event.t) -> e.Tel.Event.track) evs))

let test_recorder_tracks_and_flows () =
  let r = Tel.Recorder.create ~capacity:16 () in
  let a = Tel.Recorder.fresh_track r "alpha" in
  let b = Tel.Recorder.fresh_track r "beta" in
  Alcotest.(check bool) "distinct tracks" true (a <> b);
  Alcotest.(check string) "name kept" "alpha" (Tel.Recorder.track_name r a);
  let f1 = Tel.Recorder.fresh_flow r in
  let f2 = Tel.Recorder.fresh_flow r in
  Alcotest.(check bool) "flows distinct" true (f1 <> f2);
  Tel.Recorder.record r ~at:5.0 ~track:a Tel.Event.Ecall;
  Tel.Recorder.clear r;
  Alcotest.(check int) "clear empties events" 0 (Tel.Recorder.length r);
  Alcotest.(check bool) "flow ids survive clear" true
    (Tel.Recorder.fresh_flow r > f2);
  Alcotest.(check string) "tracks survive clear" "beta"
    (Tel.Recorder.track_name r b)

(* --- metrics --- *)

let test_metrics_histogram () =
  let m = Tel.Metrics.create () in
  let h = Tel.Metrics.histogram m "lat" in
  List.iter (Tel.Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 1024.0 ];
  Alcotest.(check int) "count" 5 h.Tel.Metrics.h_count;
  Alcotest.(check (float 0.001)) "mean" 207.8 (Tel.Metrics.mean h);
  let p50 = Tel.Metrics.percentile h 0.5 in
  Alcotest.(check bool) "p50 in the middle decade" true
    (p50 >= 1.0 && p50 <= 8.0);
  Alcotest.(check (float 0.001)) "p100 clamps to max" 1024.0
    (Tel.Metrics.percentile h 1.0);
  Alcotest.(check (float 0.001)) "p0 clamps to min" 1.0
    (Tel.Metrics.percentile h 0.0);
  let c = Tel.Metrics.counter m "n" in
  Tel.Metrics.incr c;
  Tel.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 c.Tel.Metrics.count

(* --- a tiny JSON validator (no json library in the tree) --- *)

exception Bad_json of string

let validate_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal w =
    String.iter expect w
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "object"
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elems ()
        | Some ']' -> advance ()
        | _ -> fail "array"
      in
      elems ()
    end
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance (); go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "unicode escape"
          done;
          go ()
        | _ -> fail "escape")
      | Some c when Char.code c >= 0x20 -> advance (); go ()
      | _ -> fail "string"
    in
    go ()
  and number () =
    let num_char = function
      | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
      | _ -> false
    in
    let rec go () =
      match peek () with Some c when num_char c -> advance (); go () | _ -> ()
    in
    go ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* --- the partitioned fig6 run: trace + critical path --- *)

let fig6_recorder () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let r = Tel.Recorder.create () in
  Pinterp.set_telemetry pt r;
  let res = Pinterp.call_entry pt "main" [] in
  (pt, r, res)

let test_chrome_trace_valid_json () =
  let _, r, _ = fig6_recorder () in
  let json = Tel.Chrome_trace.of_recorder r in
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
  let _, r, _ = fig6_recorder () in
  let json = Tel.Chrome_trace.of_recorder r in
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
  let pt, r, res = fig6_recorder () in
  let cp = Tel.Critical_path.analyze (Tel.Recorder.events r) in
  let makespan = Sched.max_clock pt.Pinterp.sched in
  Alcotest.(check bool) "walk complete" true cp.Tel.Critical_path.cp_complete;
  Alcotest.(check (float 0.001)) "path total = scheduler makespan" makespan
    (Tel.Critical_path.total cp);
  Alcotest.(check (float 0.001)) "analyzer makespan agrees" makespan
    cp.Tel.Critical_path.cp_makespan;
  Alcotest.(check (float 0.001)) "request latency is the makespan"
    makespan res.Pinterp.completed_at;
  (* the three-partition program has cross-partition hops on the path *)
  Alcotest.(check bool) "more than one worker on the path" true
    (List.length cp.Tel.Critical_path.cp_by_track > 1)

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
      let r = Tel.Recorder.create () in
      Pinterp.set_telemetry pt r;
      let vbuf = Heap.alloc pt.Pinterp.exec.Exec.heap Heap.Unsafe 64 in
      List.iter
        (fun (is_put, k) ->
          let entry = if is_put then "hm_put" else "hm_get" in
          ignore
            (Pinterp.call_entry pt entry
               [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
        ops;
      let cp = Tel.Critical_path.analyze (Tel.Recorder.events r) in
      let makespan = Sched.max_clock pt.Pinterp.sched in
      cp.Tel.Critical_path.cp_complete
      && Float.abs (Tel.Critical_path.total cp -. makespan) <= 1e-3
      && Float.abs (cp.Tel.Critical_path.cp_makespan -. makespan) <= 1e-3)

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
  let _, r, _ = fig6_recorder () in
  let s = Tel.Summary.of_recorder r in
  Alcotest.(check int) "no events dropped" 0 s.Tel.Summary.dropped;
  Alcotest.(check bool) "events recorded" true (s.Tel.Summary.event_count > 0);
  let messages =
    Tel.Metrics.fold_counters s.Tel.Summary.metrics
      (fun acc c ->
        if c.Tel.Metrics.c_name = "messages" then c.Tel.Metrics.count else acc)
      0
  in
  Alcotest.(check bool) "cross-partition messages counted" true (messages > 0);
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "occupancy within [0, 1]" true
        (f >= 0.0 && f <= 1.0 +. 1e-9))
    s.Tel.Summary.occupancy

(* telemetry detached: the same run records nothing and costs no events *)
let test_disabled_records_nothing () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let r = Tel.Recorder.create () in
  Tel.Recorder.set_enabled r false;
  Pinterp.set_telemetry pt r;
  let res = Pinterp.call_entry pt "main" [] in
  Alcotest.(check int) "nothing recorded" 0 (Tel.Recorder.length r);
  (* and the virtual-time result is identical to an untraced run *)
  let pt' = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let res' = Pinterp.call_entry pt' "main" [] in
  Alcotest.(check (float 0.001)) "identical virtual time"
    res'.Pinterp.latency_cycles res.Pinterp.latency_cycles

let suite =
  [
    Alcotest.test_case "recorder disabled" `Quick test_recorder_disabled;
    Alcotest.test_case "recorder ring wrap" `Quick test_recorder_ring_wrap;
    Alcotest.test_case "recorder tracks/flows" `Quick
      test_recorder_tracks_and_flows;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_trace_valid_json;
    Alcotest.test_case "chrome trace golden (two-enclave)" `Quick
      test_chrome_trace_golden;
    Alcotest.test_case "critical path fig6" `Quick test_critical_path_fig6;
    QCheck_alcotest.to_alcotest prop_critical_path_tiles;
    QCheck_alcotest.to_alcotest prop_queue_linearizable;
    Alcotest.test_case "summary fig6" `Quick test_summary_fig6;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
  ]
