(* The message/chunk schedule of a run as text — the runtime's own
   Figure 7: chunk starts and ends, spawn and cont messages with the
   worker that received them, and barriers, in time order. A reader over
   the VM ring, like the Chrome trace; [run --schedule] prints it. *)

let pp fmt (rings : Ring.t list) =
  let evs = Ring.merge rings in
  let tracks = Ring.tracks rings in
  let name k = fst tracks.(k) in
  (* a send names its receiver through the shared flow id *)
  let receiver = Hashtbl.create 64 in
  Array.iter
    (fun (e : Ring.event) ->
      match e.Ring.ev_kind with
      | Ev.Recv _ -> Hashtbl.replace receiver e.Ring.ev_arg e.Ring.ev_track
      | _ -> ())
    evs;
  Format.fprintf fmt "%10s  %-16s %s@." "cycles" "worker" "event";
  Array.iter
    (fun (e : Ring.event) ->
      let line f =
        Format.fprintf fmt ("%10.0f  %-16s " ^^ f ^^ "@.") e.Ring.ev_at
          (name e.Ring.ev_track)
      in
      match e.Ring.ev_kind with
      | Ev.Chunk_begin -> line "start   %s" e.Ring.ev_name
      | Ev.Chunk_end -> line "end     %s" e.Ring.ev_name
      | Ev.Send ((Ev.Spawn | Ev.Retval | Ev.Token) as g) ->
        line "%-7s -> %s" (Ev.tag_name g)
          (match Hashtbl.find_opt receiver e.Ring.ev_arg with
          | Some k -> name k
          | None -> "?")
      | Ev.Barrier -> line "barrier (visible effect)"
      | _ -> ())
    evs
