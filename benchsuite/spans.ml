(* Bench-side spans: the benchmark times its own calls into each layer's
   public functions (set-up steps, every store call, every replica apply,
   every parallel entry call). Spans inside the program are not recorded
   here, and no span nests inside another.

   A track has one writer (a shard's event loop, the replica client's
   thread, one driver thread, or the main thread), so recording takes no
   lock. Each track keeps the first [keep] spans in preallocated arrays
   for the Chrome trace; its call count and busy time cover every span. *)

let keep = 4096

type track = {
  id : int;
  label : string;
  names : string array;
  starts : float array;
  stops : float array;
  mutable kept : int;
  mutable calls : int;
  mutable busy : float;  (* seconds inside spans *)
}

(* Whether store wrappers record at all. Set only between measured slices,
   while no request is in flight. *)
let on = Atomic.make false
let tracks : track list ref = ref []
let epoch = Samples.now ()

let track label =
  let t =
    { id = List.length !tracks; label; names = Array.make keep "";
      starts = Array.make keep 0.0; stops = Array.make keep 0.0; kept = 0; calls = 0;
      busy = 0.0 }
  in
  tracks := t :: !tracks;
  t

(* Time [f] as a span named [name] on [t]. *)
let span t name f =
  let t0 = Samples.now () in
  let finish () =
    let t1 = Samples.now () in
    if t.kept < keep then begin
      t.names.(t.kept) <- name;
      t.starts.(t.kept) <- t0;
      t.stops.(t.kept) <- t1;
      t.kept <- t.kept + 1
    end;
    t.calls <- t.calls + 1;
    t.busy <- t.busy +. (t1 -. t0)
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

let calls ts = List.fold_left (fun a t -> a + t.calls) 0 ts
let busy ts = List.fold_left (fun a t -> a +. t.busy) 0.0 ts

(* Chrome trace format (chrome://tracing, Perfetto): one complete event
   per kept span, timestamps in microseconds since the bench started. *)
let write_chrome path =
  let oc = open_out path in
  let us x = (x -. epoch) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  List.iter
    (fun t ->
      sep ();
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
        t.id t.label;
      for i = 0 to t.kept - 1 do
        sep ();
        Printf.fprintf oc "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
          t.names.(i) t.id (us t.starts.(i)) ((t.stops.(i) -. t.starts.(i)) *. 1e6)
      done)
    (List.rev !tracks);
  output_string oc "\n]}\n";
  close_out oc
