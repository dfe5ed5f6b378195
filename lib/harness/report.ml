(* Plain-text table rendering for the experiment reports. *)

type t = { title : string; header : string list; mutable rows : string list list }

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- t.rows @ [ row ]

let widths t =
  let all = t.header :: t.rows in
  let cols = List.length t.header in
  List.init cols (fun c ->
      List.fold_left
        (fun acc row ->
          match List.nth_opt row c with
          | Some cell -> max acc (String.length cell)
          | None -> acc)
        0 all)

let pp fmt t =
  let ws = widths t in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth ws c in
           cell ^ String.make (max 0 (w - String.length cell)) ' ')
         row)
  in
  Format.fprintf fmt "== %s ==@." t.title;
  Format.fprintf fmt "%s@." (line t.header);
  Format.fprintf fmt "%s@."
    (String.make (List.fold_left (fun a w -> a + w + 2) (-2) ws) '-');
  List.iter (fun row -> Format.fprintf fmt "%s@." (line row)) t.rows

let print t = Format.printf "%a@." pp t

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i n = string_of_int n

(* The machine and configuration stamp of a BENCH_*.json record, with the
   keys of the benchmark's env block (benchsuite/run.py), so a record
   can be told apart from one taken on another host or build. *)
let env_json ~seed =
  let git_sha =
    if not (Sys.file_exists ".git") then "unknown"
    else
      match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
      | ic ->
        let sha = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if sha = "" then "unknown" else sha
      | exception Unix.Unix_error _ -> "unknown"
  in
  let var name = Option.value ~default:"" (Sys.getenv_opt name) in
  Printf.sprintf
    "{ \"nproc\": %d, \"ocaml\": %S, \"git_sha\": %S, \"PRIVAGIC_ENGINE\": \
     %S, \"PRIVAGIC_OBS\": %S, \"seed\": %d }"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version git_sha (var "PRIVAGIC_ENGINE") (var "PRIVAGIC_OBS")
    seed
