(* Lock-free queue (sequential, property-based, and truly parallel with
   domains) and the virtual-time scheduler. *)

module Msqueue = Privagic_runtime.Msqueue
module Vclock = Privagic_runtime.Vclock
module Sched = Privagic_runtime.Sched

let test_queue_fifo () =
  let q = Msqueue.create () in
  Alcotest.(check bool) "empty" true (Msqueue.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Msqueue.pop q);
  for i = 1 to 5 do
    Msqueue.push q i
  done;
  Alcotest.(check int) "length" 5 (Msqueue.length q);
  for i = 1 to 5 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Msqueue.pop q)
  done;
  Alcotest.(check bool) "empty again" true (Msqueue.is_empty q)

let test_queue_interleaved () =
  let q = Msqueue.create () in
  Msqueue.push q 1;
  Msqueue.push q 2;
  Alcotest.(check (option int)) "1" (Some 1) (Msqueue.pop q);
  Msqueue.push q 3;
  Alcotest.(check (option int)) "2" (Some 2) (Msqueue.pop q);
  Alcotest.(check (option int)) "3" (Some 3) (Msqueue.pop q);
  Alcotest.(check (option int)) "none" None (Msqueue.pop q)

(* model-based property: queue behaves like a functional FIFO *)
let prop_queue_model =
  QCheck.Test.make ~count:200 ~name:"queue matches a FIFO model"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let q = Msqueue.create () in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Msqueue.push q v;
            Queue.push v model;
            true
          end
          else
            let expected = if Queue.is_empty model then None else Some (Queue.pop model) in
            Msqueue.pop q = expected)
        ops)

(* true parallelism: producers and consumers on separate domains; every
   pushed element is popped exactly once, FIFO per producer *)
let test_queue_parallel () =
  let q = Msqueue.create () in
  let n = 2000 in
  let producers = 2 in
  let producer id () =
    for i = 0 to n - 1 do
      Msqueue.push q ((id * n) + i)
    done
  in
  let popped = Atomic.make 0 in
  let seen = Array.make (producers * n) false in
  let consumer () =
    while Atomic.get popped < producers * n do
      match Msqueue.pop q with
      | Some v ->
        seen.(v) <- true;
        Atomic.incr popped
      | None -> Domain.cpu_relax ()
    done
  in
  let doms =
    [ Domain.spawn (producer 0); Domain.spawn (producer 1);
      Domain.spawn consumer ]
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "all popped" (producers * n) (Atomic.get popped);
  Alcotest.(check bool) "each exactly once" true (Array.for_all Fun.id seen)

(* the shutdown drain protocol (msqueue.mli) under real contention:
   producers push from their own domains, the owner closes once they are
   done, and consumers exit only on a None pop observed *after* the close
   flag — nothing pushed before close may be lost or duplicated *)
let drain_exactly_once ~producers ~n ~consumers =
  let q = Msqueue.create () in
  let total = producers * n in
  let seen = Array.make (max total 1) 0 in
  let popped = Atomic.make 0 in
  let producer id () =
    for i = 0 to n - 1 do
      Msqueue.push q ((id * n) + i)
    done
  in
  let consumer () =
    let stop = ref false in
    while not !stop do
      match Msqueue.pop q with
      | Some v ->
        seen.(v) <- seen.(v) + 1;
        Atomic.incr popped
      | None ->
        if Msqueue.is_closed q then (
          match Msqueue.pop q with
          | Some v ->
            seen.(v) <- seen.(v) + 1;
            Atomic.incr popped
          | None -> stop := true)
        else Domain.cpu_relax ()
    done
  in
  let prods = List.init producers (fun i -> Domain.spawn (producer i)) in
  let cons = List.init consumers (fun _ -> Domain.spawn consumer) in
  List.iter Domain.join prods;
  Msqueue.close q;
  List.iter Domain.join cons;
  Atomic.get popped = total
  && (total = 0 || Array.for_all (fun c -> c = 1) seen)

let test_queue_close_drain () =
  Alcotest.(check bool) "drained exactly once" true
    (drain_exactly_once ~producers:3 ~n:2000 ~consumers:2);
  (* close on an empty queue releases an idle consumer immediately *)
  Alcotest.(check bool) "empty close" true
    (drain_exactly_once ~producers:1 ~n:0 ~consumers:2)

let prop_queue_close_drain =
  QCheck.Test.make ~count:15
    ~name:"close protocol drains exactly once (random shapes, domains)"
    QCheck.(triple (int_range 1 3) (int_range 0 300) (int_range 1 3))
    (fun (producers, n, consumers) ->
      drain_exactly_once ~producers ~n ~consumers)

let test_queue_close_flag () =
  let q = Msqueue.create () in
  Alcotest.(check bool) "open at creation" false (Msqueue.is_closed q);
  Msqueue.push q 1;
  Msqueue.close q;
  Alcotest.(check bool) "closed" true (Msqueue.is_closed q);
  (* the flag is advisory: pending elements survive, close is idempotent *)
  Msqueue.close q;
  Alcotest.(check (option int)) "pending element survives" (Some 1)
    (Msqueue.pop q);
  Alcotest.(check (option int)) "then empty" None (Msqueue.pop q)

(* --- scheduler --- *)

let test_sched_runs_by_clock () =
  let sched = Sched.create () in
  let order = ref [] in
  ignore
    (Sched.spawn sched ~name:(lazy "late") ~at:100.0 (fun _ -> order := "late" :: !order));
  ignore
    (Sched.spawn sched ~name:(lazy "early") ~at:1.0 (fun _ -> order := "early" :: !order));
  (match Sched.run sched with
  | Sched.Completed -> ()
  | _ -> Alcotest.fail "expected Completed");
  Alcotest.(check (list string)) "clock order" [ "late"; "early" ] !order

let test_sched_block_resume () =
  let sched = Sched.create () in
  let flag = ref false in
  let observed = ref (-1.0) in
  ignore
    (Sched.spawn sched ~name:(lazy "waiter") ~at:0.0 (fun clock ->
         Sched.block (fun () -> !flag) (fun () -> 55.0);
         Vclock.set clock (Float.max (Vclock.get clock) 55.0);
         observed := (Vclock.get clock)));
  ignore
    (Sched.spawn sched ~name:(lazy "setter") ~at:10.0 (fun _ -> flag := true));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check (float 0.001)) "resumed at arrival time" 55.0 !observed

let test_sched_spawn_during_run () =
  let sched = Sched.create () in
  let hits = ref 0 in
  ignore
    (Sched.spawn sched ~name:(lazy "parent") ~at:0.0 (fun _ ->
         incr hits;
         ignore
           (Sched.spawn sched ~name:(lazy "child") ~at:5.0 (fun _ -> incr hits))));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check int) "both ran" 2 !hits

let test_sched_blocked_stays () =
  let sched = Sched.create () in
  ignore
    (Sched.spawn sched ~name:(lazy "stuck") ~at:0.0 (fun _ ->
         Sched.block (fun () -> false) (fun () -> 0.0)));
  (* default allows blocked workers (servers waiting for messages) and
     reports them in the outcome *)
  (match Sched.run sched with
  | Sched.Blocked_workers [ "stuck" ] -> ()
  | _ -> Alcotest.fail "expected Blocked_workers [stuck]");
  Alcotest.(check bool) "deadlock raised" true
    (match Sched.run ~allow_blocked:false sched with
    | exception Sched.Deadlock [ "stuck" ] -> true
    | exception Sched.Deadlock _ -> true
    | _ -> false)

let test_sched_virtual_time_causality () =
  (* a consumer blocked on a produced value inherits its timestamp *)
  let sched = Sched.create () in
  let mailbox = ref None in
  let consumer_clock = ref 0.0 in
  ignore
    (Sched.spawn sched ~name:(lazy "producer") ~at:0.0 (fun clock ->
         Vclock.add clock (500.0);
         mailbox := Some (Vclock.get clock)));
  ignore
    (Sched.spawn sched ~name:(lazy "consumer") ~at:0.0 (fun clock ->
         Sched.block
           (fun () -> !mailbox <> None)
           (fun () -> match !mailbox with Some t -> t | None -> 0.0);
         Vclock.set clock (Float.max (Vclock.get clock) (Option.value ~default:0.0 !mailbox));
         consumer_clock := Vclock.get clock));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check (float 0.001)) "consumer advanced to 500" 500.0
    !consumer_clock

let suite =
  [
    Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
    Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "queue parallel (domains)" `Slow test_queue_parallel;
    Alcotest.test_case "queue close flag" `Quick test_queue_close_flag;
    Alcotest.test_case "queue close drain (domains)" `Slow
      test_queue_close_drain;
    QCheck_alcotest.to_alcotest prop_queue_close_drain;
    Alcotest.test_case "sched clock order" `Quick test_sched_runs_by_clock;
    Alcotest.test_case "sched block/resume" `Quick test_sched_block_resume;
    Alcotest.test_case "sched spawn during run" `Quick test_sched_spawn_during_run;
    Alcotest.test_case "sched blocked stays" `Quick test_sched_blocked_stays;
    Alcotest.test_case "sched causality" `Quick test_sched_virtual_time_causality;
  ]
