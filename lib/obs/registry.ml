type value =
  | Counter of int Atomic.t
  | Gauge of (unit -> float)
  | Multi of (unit -> ((string * string) list * float) list)
  | Summary of (unit -> Metrics.pctiles)

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_value : value;
}

type t = {
  mu : Mutex.t;
  mutable metrics : metric list; (* reverse registration order *)
}

let create () = { mu = Mutex.create (); metrics = [] }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let find t name labels =
  List.find_opt (fun m -> m.m_name = name && m.m_labels = labels) t.metrics

let counter t ?(labels = []) ~help name =
  locked t (fun () ->
      match find t name labels with
      | Some { m_value = Counter c; _ } -> c
      | Some _ ->
        invalid_arg ("Obs.Registry: " ^ name ^ " registered as non-counter")
      | None ->
        let c = Atomic.make 0 in
        t.metrics <-
          { m_name = name; m_labels = labels; m_help = help; m_value = Counter c }
          :: t.metrics;
        c)

let register t ~labels ~help name value =
  locked t (fun () ->
      match find t name labels with
      | Some _ ->
        (* re-registering a sampled metric replaces it: components like the
           server rebuild their gauge set when a backend store is swapped *)
        t.metrics <-
          { m_name = name; m_labels = labels; m_help = help; m_value = value }
          :: List.filter
               (fun m -> not (m.m_name = name && m.m_labels = labels))
               t.metrics
      | None ->
        t.metrics <-
          { m_name = name; m_labels = labels; m_help = help; m_value = value }
          :: t.metrics)

let gauge t ?(labels = []) ~help name f =
  register t ~labels ~help name (Gauge f)

let multi_gauge t ~help name f = register t ~labels:[] ~help name (Multi f)

let summary t ?(labels = []) ~help name f =
  register t ~labels ~help name (Summary f)

(* ---------------- exposition ---------------- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_str = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
    ^ "}"

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let type_str = function
  | Counter _ -> "counter"
  | Gauge _ | Multi _ -> "gauge"
  | Summary _ -> "summary"

let expose t =
  let ms = locked t (fun () -> List.rev t.metrics) in
  (* Prometheus requires all samples of one metric name to be contiguous:
     group by name, names in first-registration order *)
  let names =
    List.fold_left
      (fun acc m -> if List.mem m.m_name acc then acc else m.m_name :: acc)
      [] ms
    |> List.rev
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let group = List.filter (fun m -> m.m_name = name) ms in
      (match group with
      | m :: _ ->
        if m.m_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" name m.m_help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" name (type_str m.m_value))
      | [] -> ());
      List.iter
        (fun m ->
          match m.m_value with
          | Counter c ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" name (labels_str m.m_labels)
                 (Atomic.get c))
          | Gauge f ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (labels_str m.m_labels)
                 (fmt_float (f ())))
          | Multi f ->
            List.iter
              (fun (labels, v) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" name (labels_str labels)
                     (fmt_float v)))
              (f ())
          | Summary f ->
            let p = f () in
            let q qv v =
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name
                   (labels_str (m.m_labels @ [ ("quantile", qv) ]))
                   (fmt_float v))
            in
            q "0.5" p.Metrics.p50;
            q "0.95" p.Metrics.p95;
            q "0.99" p.Metrics.p99;
            q "0.999" p.Metrics.p999;
            q "1" p.Metrics.p_max;
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (labels_str m.m_labels)
                 (fmt_float (p.Metrics.p_mean *. float_of_int p.Metrics.n)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (labels_str m.m_labels)
                 p.Metrics.n))
        group)
    names;
  Buffer.contents buf
