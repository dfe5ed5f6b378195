(* See the .mli. *)

type t = { r : Unix.file_descr; w : Unix.file_descr; buf : Bytes.t }

let create () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w; buf = Bytes.create 256 }

let fd t = t.r

let wake t =
  try ignore (Unix.write_substring t.w "!" 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let drain t =
  let rec go () =
    match Unix.read t.r t.buf 0 (Bytes.length t.buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let close t =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ t.r; t.w ]
