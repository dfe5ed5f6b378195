(* Critical-path analysis over the happens-before edges in a VM's ring.

   The virtual-time execution gives every event an exact causal timestamp,
   so the critical path can be recovered by walking *backward* from the
   makespan: at any point (track, t) the predecessor is the latest binding
   causal entry on that track at or before t —

   - a message receive whose matching send lives on another track and
     whose receive time equals the send time (the receiver waited: the
     message was binding; a receive later than its send means the
     receiver's own clock dominated and the wait was free);
   - a [Fiber_start] (the fiber could not run before its spawn; the
     matching [Fiber_spawn] names the spawning track);
   - a [Fiber_resume] whose arrival timestamp exceeds the clock it blocked
     at, matched by timestamp against a send-like event on another track
     (the fallback for schedulers used without the VM's flow ids).

   Each hop lands at exactly the same virtual time on the predecessor
   track, so the path segments tile [0, makespan] with no gaps and their
   lengths sum to the makespan — the invariant the property tests check
   against [Sched.max_clock]. *)

type segment = {
  s_track : int;
  s_from : float;
  s_upto : float;
  s_via : string;      (* how the path entered this segment *)
}

type t = {
  cp_tracks : string array;          (* global track -> display name *)
  cp_makespan : float;
  cp_segments : segment list;        (* chronological, tiling [0, makespan] *)
  cp_by_track : (int * float) list;  (* cycles attributed per track *)
  cp_by_chunk : (string * float) list; (* cycles attributed per chunk *)
  cp_complete : bool;                (* the walk reached time 0 *)
}

let total t =
  List.fold_left (fun acc s -> acc +. (s.s_upto -. s.s_from)) 0.0 t.cp_segments

let eps = 1e-6

(* Spans per track, from paired [b]/[e] events (chunk execution, or
   served requests). *)
let spans ~b ~e (evs : Ring.event array) =
  let stacks = Hashtbl.create 8 and spans = ref [] in
  Array.iter
    (fun (ev : Ring.event) ->
      let k = ev.Ring.ev_track in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks k) in
      if ev.Ring.ev_kind = b then
        Hashtbl.replace stacks k ((ev.Ring.ev_name, ev.Ring.ev_at) :: stack)
      else if ev.Ring.ev_kind = e then
        match stack with
        | (name, t0) :: rest ->
          Hashtbl.replace stacks k rest;
          spans := (k, name, t0, ev.Ring.ev_at) :: !spans
        | [] -> ())
    evs;
  !spans

let chunk_spans = spans ~b:Ev.Chunk_begin ~e:Ev.Chunk_end

(* [evs] grouped by [key] (events without one are left out), newest
   first: the merged order is chronological, record order within a
   ring breaking ties. *)
let group key (evs : Ring.event array) =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      Option.iter
        (fun k ->
          Hashtbl.replace tbl k
            (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
        (key e))
    evs;
  fun k -> Option.value ~default:[] (Hashtbl.find_opt tbl k)

let add tbl k d =
  Hashtbl.replace tbl k
    (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let by_share tbl =
  List.sort
    (fun (_, a) (_, b) -> Float.compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let analyze (rings : Ring.t list) : t =
  let evs = Ring.merge rings in
  let tracks = Array.map fst (Ring.tracks rings) in
  if Array.length evs = 0 then
    { cp_tracks = tracks; cp_makespan = 0.0; cp_segments = []; cp_by_track = [];
      cp_by_chunk = []; cp_complete = true }
  else begin
    let on_track = group (fun e -> Some e.Ring.ev_track) evs in
    let spawns =
      group
        (fun e ->
          if e.Ring.ev_kind = Ev.Fiber_spawn then Some e.Ring.ev_track
          else None)
        evs
    in
    let sends = Hashtbl.create 64 in
    Array.iter
      (fun (e : Ring.event) ->
        match e.Ring.ev_kind with
        | Ev.Send g -> Hashtbl.replace sends e.Ring.ev_arg (e, g)
        | _ -> ())
      evs;
    (* send-like events usable for timestamp matching (the scheduler-only
       fallback when no flow id is available) *)
    let send_like =
      List.filter
        (fun (e : Ring.event) ->
          match e.Ring.ev_kind with
          | Ev.Send _ | Ev.Fiber_finish | Ev.Chunk_end -> true
          | _ -> false)
        (Array.to_list evs)
    in
    (* the latest binding causal entry on [track] at or before [time]:
       its time, the predecessor track (-1: none) and how it was entered *)
    let entry track time =
      let rec scan = function
        | [] -> None
        | (e : Ring.event) :: older when e.Ring.ev_at > time +. eps ->
          scan older
        | e :: older -> (
          match e.Ring.ev_kind with
          | Ev.Recv _ -> (
            match Hashtbl.find_opt sends e.Ring.ev_arg with
            | Some (s, g)
              when s.Ring.ev_track <> track
                   && e.Ring.ev_at <= s.Ring.ev_at +. eps ->
              (* binding receive: the receiver waited for this send *)
              Some (e.Ring.ev_at, s.Ring.ev_track, "msg:" ^ Ev.tag_name g)
            | _ -> scan older (* non-binding or local *))
          | Ev.Fiber_start -> (
            (* the spawn that started this fiber: the latest one on this
               track at or before the start *)
            match
              List.find_opt
                (fun (s : Ring.event) -> s.Ring.ev_at <= e.Ring.ev_at +. eps)
                (spawns track)
            with
            | Some s when s.Ring.ev_arg = track ->
              (* serialized after earlier work on this same track (e.g.
                 the previous request of the thread): not a causal entry *)
              scan older
            | Some s when s.Ring.ev_arg >= 0 ->
              Some (e.Ring.ev_at, s.Ring.ev_arg, "spawn")
            | _ -> Some (e.Ring.ev_at, -1, "origin") (* externally spawned *))
          | Ev.Fiber_resume -> (
            (* binding only if the arrival moved the clock: the send-like
               event at that timestamp on another track *)
            let arr = Ring.to_cycles e.Ring.ev_arg in
            let cause (s : Ring.event) =
              s.Ring.ev_track <> track && Float.abs (s.Ring.ev_at -. arr) <= eps
            in
            match
              if arr > 0.0 && arr >= e.Ring.ev_at -. eps then
                List.find_opt cause send_like
              else None
            with
            | Some s -> Some (e.Ring.ev_at, s.Ring.ev_track, "resume")
            | None -> scan older)
          | _ -> scan older)
      in
      scan (on_track track)
    in
    let seg track from upto via =
      { s_track = track; s_from = from; s_upto = upto; s_via = via }
    in
    (* walk backward from the makespan; returns the segments, oldest
       first, and whether the walk reached time 0 *)
    let rec walk track time guard acc =
      if guard = 0 then (seg track 0.0 time "guard" :: acc, false)
      else
        match entry track time with
        | None -> (seg track 0.0 time "start" :: acc, true)
        | Some (t0, next, via) ->
          let t0 = Float.min t0 time in
          let acc = seg track t0 time via :: acc in
          if next >= 0 && t0 > eps then walk next t0 (guard - 1) acc
          else if t0 > eps then
            (* attribute the remaining head to the origin track *)
            (seg track 0.0 t0 "unattributed" :: acc, false)
          else (acc, true)
    in
    (* the walk starts at the track holding the latest event *)
    let last =
      Array.fold_left
        (fun (best : Ring.event) (e : Ring.event) ->
          if e.Ring.ev_at > best.Ring.ev_at then e else best)
        evs.(0) evs
    in
    let makespan = last.Ring.ev_at in
    let segments, complete =
      walk last.Ring.ev_track makespan (Array.length evs + 8) []
    in
    (* attribute path time to workers, and to chunks by intersecting
       with chunk spans *)
    let by_track = Hashtbl.create 8 and by_chunk = Hashtbl.create 8 in
    let spans = chunk_spans evs in
    List.iter
      (fun s ->
        add by_track s.s_track (s.s_upto -. s.s_from);
        let covered =
          List.fold_left
            (fun covered (track, name, t0, t1) ->
              let lo = Float.max t0 s.s_from and hi = Float.min t1 s.s_upto in
              if track = s.s_track && hi > lo then begin
                add by_chunk name (hi -. lo);
                covered +. (hi -. lo)
              end
              else covered)
            0.0 spans
        in
        (* innermost spans may overlap (nested chunks): clamp the residue *)
        let residue = Float.max 0.0 (s.s_upto -. s.s_from -. covered) in
        if residue > 0.0 then add by_chunk "<runtime>" residue)
      segments;
    {
      cp_tracks = tracks;
      cp_makespan = makespan;
      cp_segments = segments;
      cp_by_track = by_share by_track;
      cp_by_chunk = by_share by_chunk;
      cp_complete = complete;
    }
  end

let pp fmt t =
  let open Format in
  let track_name k =
    if k >= 0 && k < Array.length t.cp_tracks then t.cp_tracks.(k)
    else Printf.sprintf "track-%d" k
  in
  fprintf fmt "critical path (makespan %.0f cycles):@." t.cp_makespan;
  List.iter
    (fun s ->
      fprintf fmt "  %10.0f .. %-10.0f  %-24s  (+%.0f, via %s)@." s.s_from
        s.s_upto (track_name s.s_track) (s.s_upto -. s.s_from) s.s_via)
    t.cp_segments;
  fprintf fmt "attribution by worker:@.";
  List.iter
    (fun (k, d) ->
      fprintf fmt "  %-24s %12.0f cycles (%4.1f%%)@." (track_name k) d
        (if t.cp_makespan > 0.0 then 100.0 *. d /. t.cp_makespan else 0.0))
    t.cp_by_track;
  fprintf fmt "attribution by chunk:@.";
  List.iter
    (fun (name, d) ->
      fprintf fmt "  %-24s %12.0f cycles (%4.1f%%)@." name d
        (if t.cp_makespan > 0.0 then 100.0 *. d /. t.cp_makespan else 0.0))
    t.cp_by_chunk;
  fprintf fmt "path total: %.0f cycles%s@." (total t)
    (if t.cp_complete then "" else "  (incomplete walk)")
