(* Plain-text summary reader: derives the standard per-run metrics from
   the merged events of a set of rings — message (queue) latency, chunk
   span lengths, per-worker busy occupancy, transition/fault counts — and
   renders them with the histograms of {!Metrics}. *)

type t = {
  tracks : string array;  (* global track -> display name *)
  makespan : float;
  event_count : int;
  dropped : int;
  counters : (string * int) list;  (* in report order *)
  histograms : Metrics.histogram list;
  occupancy : (int * float) list;  (* track -> busy fraction of makespan *)
}

let counter_names =
  [ "messages"; "spawn messages"; "cont messages"; "barriers"; "ecalls";
    "epc faults (pages)"; "syscalls" ]

let of_rings (rings : Ring.t list) : t =
  let evs = Ring.merge rings in
  let n = Array.make (List.length counter_names) 0 in
  let bump i by = n.(i) <- n.(i) + by in
  let queue_latency = Metrics.histogram "queue latency (cycles)" in
  let send_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (e : Ring.event) ->
      match e.Ring.ev_kind with
      | Ev.Send g ->
        bump 0 1;
        (match g with
        | Ev.Spawn -> bump 1 1
        | Ev.Retval | Ev.Token -> bump 2 1
        | Ev.Done -> ());
        Hashtbl.replace send_at e.Ring.ev_arg e.Ring.ev_at
      | Ev.Recv _ ->
        Option.iter
          (fun t0 ->
            Metrics.observe queue_latency (Float.max 0.0 (e.Ring.ev_at -. t0)))
          (Hashtbl.find_opt send_at e.Ring.ev_arg)
      | Ev.Barrier -> bump 3 1
      | Ev.Ecall -> bump 4 1
      | Ev.Epc_fault -> bump 5 (max 1 e.Ring.ev_arg)
      | Ev.Syscall | Ev.Ocall -> bump 6 1
      | _ -> ())
    evs;
  let observe name spans =
    let h = Metrics.histogram name in
    List.iter (fun (_, _, t0, t1) -> Metrics.observe h (t1 -. t0)) spans;
    h
  in
  let spans = Critical_path.chunk_spans evs in
  (* serving-layer request spans, when present: end-to-end latency in the
     ring's clock units (microseconds for a server's loops) *)
  let reqs = Critical_path.spans ~b:Ev.Req_begin ~e:Ev.Req_end evs in
  let makespan =
    Array.fold_left (fun acc (e : Ring.event) -> Float.max acc e.Ring.ev_at) 0.0
      evs
  in
  (* busy time = union of the track's chunk intervals; a nested chunk
     (local call inside a chunk) would otherwise be double-counted *)
  let by_track : (int, (float * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (track, _, t0, t1) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_track track) in
      Hashtbl.replace by_track track ((t0, t1) :: prev))
    spans;
  let busy ivs =
    match List.sort compare ivs with
    | [] -> 0.0
    | (lo0, hi0) :: rest ->
      let total, lo, hi =
        List.fold_left
          (fun (acc, lo, hi) (a, b) ->
            if a > hi then (acc +. (hi -. lo), a, b)
            else (acc, lo, Float.max hi b))
          (0.0, lo0, hi0) rest
      in
      total +. (hi -. lo)
  in
  {
    tracks = Array.map fst (Ring.tracks rings);
    makespan;
    event_count = Array.length evs;
    dropped = List.fold_left (fun acc r -> acc + Ring.dropped r) 0 rings;
    counters =
      List.combine counter_names (Array.to_list n)
      @ (if reqs = [] then [] else [ ("requests", List.length reqs) ]);
    histograms =
      [ queue_latency; observe "chunk span length (cycles)" spans ]
      @ (if reqs = [] then [] else [ observe "request latency" reqs ]);
    occupancy =
      List.sort
        (fun (_, a) (_, b) -> Float.compare b a)
        (Hashtbl.fold
           (fun k ivs acc ->
             (k, if makespan > 0.0 then busy ivs /. makespan else 0.0) :: acc)
           by_track []);
  }

let pp fmt t =
  let open Format in
  let track_name k =
    if k >= 0 && k < Array.length t.tracks then t.tracks.(k)
    else Printf.sprintf "track-%d" k
  in
  fprintf fmt "trace summary: %d events%s, makespan %.0f cycles@."
    t.event_count
    (if t.dropped > 0 then Printf.sprintf " (%d dropped)" t.dropped else "")
    t.makespan;
  List.iter (fun (name, c) -> fprintf fmt "  %-32s %12d@." name c) t.counters;
  List.iter
    (fun (h : Metrics.histogram) ->
      if h.Metrics.h_count = 0 then
        fprintf fmt "  %-32s (no samples)@." h.Metrics.h_name
      else
        let p = Metrics.pctiles h in
        fprintf fmt
          "  %-32s n=%-7d mean=%-10.0f p50=%-10.0f p95=%-10.0f p99=%-10.0f \
           p99.9=%-10.0f max=%-10.0f@."
          h.Metrics.h_name p.Metrics.n p.Metrics.p_mean p.Metrics.p50
          p.Metrics.p95 p.Metrics.p99 p.Metrics.p999 p.Metrics.p_max)
    t.histograms;
  fprintf fmt "per-worker occupancy (chunk-busy / makespan):@.";
  List.iter
    (fun (k, f) ->
      fprintf fmt "  %-24s %5.1f%%@." (track_name k) (100.0 *. f))
    t.occupancy
