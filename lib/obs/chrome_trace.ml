(* Chrome trace_event JSON export, loadable in chrome://tracing and
   Perfetto, read from rings. One process per clock domain: pid 1 is
   virtual time ("privagic"), pid 2 wall-clock microseconds. One named
   thread per track; B/E duration slices for chunk execution and served
   requests; legacy flow events (s/f) draw the arrows between a
   message's send and its receive; machine transitions, faults and
   scheduler block/resume points are instants. Lane phase entries and
   extern points stay out of the trace.

   Events are emitted in record order, ring by ring (viewers sort by
   timestamp). Virtual timestamps are cycles verbatim — only relative
   positions matter for reading a schedule, and cycles keep the numbers
   exact. An end whose begin was overwritten in a wrapped ring is
   dropped, so every slice that is written is balanced. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pid = function Ring.Virtual -> "1" | Ring.Wall -> "2"

let process_name = function
  | Ring.Virtual -> "privagic"
  | Ring.Wall -> "privagic wall-clock (us)"

let emit_to_buffer (rings : Ring.t list) (b : Buffer.t) =
  let evs = Ring.events rings in
  let tracks = Ring.tracks rings in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "  {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char b '}'
  in
  let str s = Printf.sprintf "\"%s\"" (escape s) in
  let ts at = Printf.sprintf "%.3f" at in
  Buffer.add_string b "{\n\"traceEvents\": [\n";
  List.iter
    (fun c ->
      if List.exists (fun r -> Ring.clock r = c) rings then
        obj [ ("name", str "process_name"); ("ph", str "M"); ("pid", pid c);
              ("tid", "0");
              ("args", Printf.sprintf "{\"name\":%s}" (str (process_name c))) ])
    [ Ring.Virtual; Ring.Wall ];
  (* named thread per track that holds events, in track order *)
  let used = Array.make (Array.length tracks) false in
  Array.iter (fun (e : Ring.event) -> used.(e.Ring.ev_track) <- true) evs;
  Array.iteri
    (fun k (name, clock) ->
      if used.(k) then
        obj
          [ ("name", str "thread_name"); ("ph", str "M"); ("pid", pid clock);
            ("tid", string_of_int k);
            ("args", Printf.sprintf "{\"name\":%s}" (str name)) ])
    tracks;
  (* flow ids are per ring: qualify them so two VMs' flows never pair *)
  let ids = 1 + List.fold_left (fun m r -> max m (Ring.id r)) 0 rings in
  let flow (e : Ring.event) =
    string_of_int ((e.Ring.ev_arg * ids) + e.Ring.ev_ring)
  in
  let depth = Array.make (Array.length tracks) 0 in
  Array.iter
    (fun (e : Ring.event) ->
      let p = pid e.Ring.ev_clock and tid = string_of_int e.Ring.ev_track in
      let at = ts e.Ring.ev_at in
      let instant ?(cat = "sched") name =
        obj
          [ ("name", str name); ("ph", str "i"); ("s", str "t"); ("pid", p);
            ("tid", tid); ("ts", at); ("cat", str cat) ]
      in
      let slice ph name cat =
        obj
          [ ("name", str name); ("ph", str ph); ("pid", p); ("tid", tid);
            ("ts", at); ("cat", str cat) ]
      in
      let open_ () = depth.(e.Ring.ev_track) <- depth.(e.Ring.ev_track) + 1 in
      let close () =
        let d = depth.(e.Ring.ev_track) in
        if d > 0 then depth.(e.Ring.ev_track) <- d - 1;
        d > 0
      in
      let req = "req:" ^ e.Ring.ev_name in
      match e.Ring.ev_kind with
      | Ev.Chunk_begin -> open_ (); slice "B" e.Ring.ev_name "chunk"
      | Ev.Chunk_end -> if close () then slice "E" e.Ring.ev_name "chunk"
      | Ev.Req_begin -> open_ (); slice "B" req "request"
      | Ev.Req_end -> if close () then slice "E" req "request"
      | Ev.Send g ->
        obj
          [ ("name", str ("msg:" ^ Ev.tag_name g)); ("ph", str "s");
            ("id", flow e); ("pid", p); ("tid", tid); ("ts", at);
            ("cat", str "msg") ]
      | Ev.Recv g ->
        obj
          [ ("name", str ("msg:" ^ Ev.tag_name g)); ("ph", str "f");
            ("bp", str "e"); ("id", flow e); ("pid", p); ("tid", tid);
            ("ts", at); ("cat", str "msg") ]
      | Ev.Fiber_block | Ev.Fiber_resume | Ev.Fiber_start | Ev.Fiber_finish ->
        instant (Ev.name e.Ring.ev_kind)
      | Ev.Barrier -> instant ~cat:"sync" "barrier"
      | Ev.Epc_fault | Ev.Ecall | Ev.Ocall | Ev.Switchless | Ev.Queue_msg
      | Ev.Syscall | Ev.Thread_spawn ->
        instant ~cat:"machine" (Ev.name e.Ring.ev_kind)
      | Ev.Fiber_spawn | Ev.Phase _ | Ev.Extern -> ())
    evs;
  Buffer.add_string b "\n],\n\"displayTimeUnit\": \"ns\"\n}\n"

let to_string rings =
  let b = Buffer.create 65536 in
  emit_to_buffer rings b;
  Buffer.contents b

let to_file rings path =
  let oc = open_out path in
  output_string oc (to_string rings);
  close_out oc
