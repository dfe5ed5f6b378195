(* Deterministic virtual-time scheduler.

   Workers are cooperative fibers (OCaml effect handlers). Each worker owns
   a virtual clock (a [Vclock.t] of simulated cycles) that its code
   advances as it accounts work; a worker blocks by performing
   [Block (cond, arrival)]: it becomes runnable again when [cond ()] holds,
   and on resumption its clock jumps to at least [arrival ()] — the causal
   timestamp of whatever it waited for. The scheduler always resumes the
   runnable worker with the smallest clock, making the simulation a
   deterministic discrete-event execution: no wall clock, no races,
   reproducible benchmark numbers.

   Tracing: when a ring is attached, every fiber lifecycle edge (spawn,
   start, block, resume, finish) is recorded on the fiber's track — the
   happens-before skeleton the critical-path analyzer walks. The spawner
   controls track identity ([spawn ~track]) so several fibers of one
   logical worker share a track; without a ring each edge costs one
   match on [None]. *)

module Ring = Privagic_obs.Ring
module Ev = Privagic_obs.Ev

type _ Effect.t +=
  | Block : (unit -> bool) * (unit -> float) -> unit Effect.t

type worker_state =
  | Not_started of (Vclock.t -> unit)
  | Blocked of (unit -> bool) * (unit -> float)
      * (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type worker = {
  wid : int;
  name : string Lazy.t; (* formatted only when a trace or a report reads it *)
  track : int;
  clock : Vclock.t;
  mutable state : worker_state;
}

type t = { mutable workers : worker list; mutable next_id : int;
           mutable steps : int;
           mutable high_water : float;      (* clocks of pruned fibers *)
           mutable ring : Ring.t option;    (* the VM's trace ring *)
           mutable running : worker option }

(* How a [run] ended. [Blocked_workers] names the workers still waiting
   (servers awaiting their next message, or a deadlock); [Budget_exhausted]
   reports that [max_steps] was hit — callers must not mistake the partial
   execution for a completed one. *)
type outcome =
  | Completed
  | Blocked_workers of string list
  | Budget_exhausted of int

exception Deadlock of string list

let create () =
  { workers = []; next_id = 0; steps = 0; high_water = 0.0;
    ring = None; running = None }

let set_ring t r = t.ring <- Some r

let[@inline] record r ~track kind ~arg clock =
  Ring.record r ~track ~code:(Ev.code kind) ~arg ~ts:(Ring.of_cycles clock)

(* [parent] overrides the spawning track recorded with the fiber's
   Fiber_spawn event (default: the currently running worker, -1 when the
   spawn comes from outside the scheduler). A parent equal to [track]
   marks the fiber as serialized after earlier work on its own track —
   how a request entering an already-busy thread is modeled. *)
let spawn t ~name ?track ?parent ~at body =
  let track =
    match track with
    | Some k -> k
    | None -> (
      match t.ring with Some r -> Ring.track r (Lazy.force name) | None -> 0)
  in
  let w =
    { wid = t.next_id; name; track; clock = Vclock.make at; state = Not_started body }
  in
  t.next_id <- t.next_id + 1;
  t.workers <- t.workers @ [ w ];
  (match t.ring with
  | None -> ()
  | Some r ->
    let arg =
      match parent with
      | Some p -> p
      | None -> ( match t.running with Some p -> p.track | None -> -1)
    in
    record r ~track Ev.Fiber_spawn ~arg at);
  w

(* Called from inside a worker fiber: wait until [cond] holds; the clock
   then advances to at least [arrival ()]. *)
let block cond arrival = Effect.perform (Block (cond, arrival))

let handler (w : worker) =
  let open Effect.Deep in
  {
    retc = (fun () -> w.state <- Finished);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block (cond, arrival) ->
          Some
            (fun (k : (a, unit) continuation) ->
              w.state <- Blocked (cond, arrival, k))
        | _ -> None);
  }

let step_worker t w =
  t.running <- Some w;
  (match w.state with
  | Not_started body ->
    w.state <- Running;
    (match t.ring with
    | Some r ->
      record r ~track:w.track Ev.Fiber_start ~arg:0 (Vclock.get w.clock)
    | None -> ());
    Effect.Deep.match_with (fun () -> body w.clock) () (handler w)
  | Blocked (_, arrival, k) ->
    let arr = arrival () in
    Vclock.set w.clock (Float.max (Vclock.get w.clock) arr);
    w.state <- Running;
    (match t.ring with
    | Some r ->
      record r ~track:w.track Ev.Fiber_resume ~arg:(Ring.of_cycles arr)
        (Vclock.get w.clock)
    | None -> ());
    Effect.Deep.continue k ()
  | Running | Finished -> invalid_arg "Sched.step_worker");
  t.running <- None;
  match t.ring with
  | None -> ()
  | Some r -> (
    match w.state with
    | Blocked _ ->
      record r ~track:w.track Ev.Fiber_block ~arg:0 (Vclock.get w.clock)
    | Finished ->
      record r ~track:w.track Ev.Fiber_finish ~arg:0 (Vclock.get w.clock)
    | Not_started _ | Running -> ())

let runnable w =
  match w.state with
  | Not_started _ -> true
  | Blocked (cond, _, _) -> cond ()
  | Running | Finished -> false

(* Run until every worker is finished or blocked on an unsatisfiable
   condition. New workers spawned during the run are picked up. Workers
   left blocked are not an error when [allow_blocked] — they are servers
   waiting for their next message. [max_steps] bounds the steps of *this*
   invocation; hitting it returns [Budget_exhausted] instead of raising,
   so callers can distinguish exhaustion from completion. *)
let run ?(allow_blocked = true) ?(max_steps = max_int) t : outcome =
  let result = ref Completed in
  let budget = ref max_steps in
  let continue = ref true in
  while !continue do
    if !budget <= 0 then begin
      result := Budget_exhausted t.steps;
      continue := false
    end
    else begin
      t.steps <- t.steps + 1;
      decr budget;
      (* drop finished fibers so long sessions do not accumulate garbage;
         remember their clocks for the makespan *)
      t.workers <-
        List.filter
          (fun w ->
            match w.state with
            | Finished ->
              t.high_water <- Float.max t.high_water (Vclock.get w.clock);
              false
            | _ -> true)
          t.workers;
      let candidates = List.filter runnable t.workers in
      match candidates with
      | [] ->
        let blocked =
          List.filter_map
            (fun w ->
              match w.state with
              | Blocked _ -> Some (Lazy.force w.name)
              | _ -> None)
            t.workers
        in
        if blocked <> [] then begin
          if not allow_blocked then raise (Deadlock blocked);
          result := Blocked_workers blocked
        end;
        continue := false
      | first :: rest ->
        let best =
          List.fold_left
            (fun best w ->
              if
                (Vclock.get w.clock) < (Vclock.get best.clock)
                || ((Vclock.get w.clock) = (Vclock.get best.clock) && w.wid < best.wid)
              then w
              else best)
            first rest
        in
        step_worker t best
    end
  done;
  !result

(* Largest clock ever observed: the makespan of the simulated execution.
   Includes fibers already pruned after finishing. *)
let max_clock t =
  List.fold_left (fun acc w -> Float.max acc (Vclock.get w.clock)) t.high_water
    t.workers
