(* Entry points of the benchmark binary; run.py is the front end.

     main.exe workload NAME [--seed N] [--seconds S] [--trace] [--smoke]
                            [--fault corrupt-get|scan-leak|replica-corrupt]
     main.exe client ...    (the load client; started by the workload)
     main.exe setup NAME ... (one set-up alone; started by the workload)

   A workload prints "<workload> <metric> <value> <unit> n=<samples>"
   lines, then one JSON object as its last line, and exits 1 when a
   correctness check failed. *)

(* "--key value" pairs; a key followed by another key is a bare flag. *)
let flags args =
  let rec go acc = function
    | k :: v :: tl when not (String.starts_with ~prefix:"--" v) -> go ((k, v) :: acc) tl
    | k :: tl -> go ((k, "") :: acc) tl
    | [] -> acc
  in
  go [] args

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else failwith "non-finite metric"

let parse name args =
  let w =
    match List.find_opt (fun (w : Workload.t) -> w.Workload.name = name) Workload.all with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ name)
  in
  let f = flags args in
  let get k d = match List.assoc_opt k f with Some v -> v | None -> d in
  ( w,
    { Workload.seed = int_of_string (get "--seed" "42");
      seconds = float_of_string (get "--seconds" "20");
      trace = List.mem_assoc "--trace" f;
      smoke = List.mem_assoc "--smoke" f;
      fault = Workload.fault_of_string (get "--fault" "none") } )

let workload name args =
  let w, opts = parse name args in
  let o = Workload.run w opts in
  List.iter
    (fun (m : Workload.metric) ->
      Printf.printf "%s %s %s %s n=%d\n" name m.Workload.m_name (json_number m.Workload.value)
        m.Workload.unit_ m.Workload.n)
    o.Workload.metrics;
  List.iter (fun p -> Printf.printf "%s check failed: %s\n" name p) o.Workload.problems;
  let correct = o.Workload.ops_failed = 0 && o.Workload.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.Workload.ops_attempted o.Workload.ops_failed
    (String.concat ", "
       (List.map
          (fun (m : Workload.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Workload.m_name
              (json_number m.Workload.value) m.Workload.unit_)
          o.Workload.metrics));
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "client" :: args ->
    let f = flags args in
    let cfg = Client.of_args (fun k -> List.assoc k f) in
    Client.report (Client.run cfg)
  | "setup" :: name :: args ->
    let w, opts = parse name args in
    Workload.setup_only w opts
  | "workload" :: name :: args -> (
    try workload name args
    with e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 2)
  | _ ->
    prerr_endline "usage: main.exe workload NAME [--seed N] [--seconds S] [--trace] [--smoke] [--fault F]";
    exit 2
