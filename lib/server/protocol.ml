(* Incremental parser/printer for the memcached-lite text protocol. Both
   directions are line-oriented except for the data blocks of [set] and
   [VALUE], whose length is announced on the preceding line — so the
   parser is a two-state machine (awaiting a line / awaiting a block) over
   a growable byte buffer, and never blocks: it consumes what it can and
   keeps the rest for the next feed. *)

(* Transaction ops travel on the wire exactly as the txn layer executes
   them; the re-export keeps the constructors in scope here. *)
type txn_op = Privagic_txn.Txn.op =
  | T_get of int
  | T_set of int * string
  | T_del of int
  | T_cas of int * int * string

type txn_result = Privagic_txn.Txn.op_result =
  | R_value of string option
  | R_stored
  | R_deleted
  | R_not_found

type request =
  | Get of int
  | Set of int * string
  | Del of int
  | Getv of int (* get with version, for CAS round trips *)
  | Cas of { c_key : int; c_ver : int; c_val : string }
  | Scan of { sc_start : int; sc_stop : int; sc_limit : int }
  | Txn of txn_op list (* txn ... exec *)
  | Stats
  | Stats_metrics
  | Quit
  | Shutdown
  | Repl of { r_sync : bool; r_from : int }

(* A scan item carries value bytes only when the indexed value is
   unprotected ("U"): secret-colored entries answer with key and
   version alone (SKEY), never with data. The shards' tables produce
   these records directly. *)
type scan_item = Privagic_txn.Index.item = {
  si_key : int;
  si_ver : int;
  si_val : string option;
}

type response =
  | Value of int * string
  | Miss
  | Stored
  | Deleted
  | Not_found
  | Version of { v_key : int; v_ver : int; v_val : string option }
      (* getv reply; [None] = miss (VMISS line) *)
  | Cas_conflict of int (* current version: the first writer won *)
  | Scan_reply of scan_item list
  | Txn_reply of txn_result list
  | Txn_abort of { ta_key : int; ta_expected : int; ta_found : int }
  | Stats_reply of (string * string) list
  | Metrics_reply of string
      (* Prometheus exposition text ("\n"-terminated lines), closed by
         an END line on the wire *)
  | Busy
  | Error_msg of string
  | Ok_msg

let max_value_len = 64 * 1024
let max_scan_limit = 1024
let max_txn_ops = 64

(* ------------------------------------------------------------------ *)
(* shared incremental line scanner *)

(* Accumulated unconsumed input. [start] avoids re-copying on every
   consume; the buffer is compacted when the dead prefix dominates. *)
type ibuf = { mutable data : Bytes.t; mutable start : int; mutable len : int }

let ibuf () = { data = Bytes.create 4096; start = 0; len = 0 }

let ibuf_add b (src : Bytes.t) n =
  if b.start > 0 && (b.start > 4096 || b.len = 0) then begin
    Bytes.blit b.data b.start b.data 0 b.len;
    b.start <- 0
  end;
  let need = b.start + b.len + n in
  if need > Bytes.length b.data then begin
    let data = Bytes.create (max need (2 * Bytes.length b.data)) in
    Bytes.blit b.data b.start data 0 b.len;
    b.data <- data;
    b.start <- 0
  end;
  Bytes.blit src 0 b.data (b.start + b.len) n;
  b.len <- b.len + n

(* Next complete line, without its terminator (accepts \r\n and \n). *)
let ibuf_line b =
  let rec find i =
    if i >= b.start + b.len then None
    else if Bytes.get b.data i = '\n' then Some i
    else find (i + 1)
  in
  match find b.start with
  | None -> None
  | Some nl ->
    let stop = if nl > b.start && Bytes.get b.data (nl - 1) = '\r' then nl - 1 else nl in
    let line = Bytes.sub_string b.data b.start (stop - b.start) in
    b.len <- b.len - (nl + 1 - b.start);
    b.start <- nl + 1;
    Some line

(* [n] raw bytes followed by a line terminator, or None until available. *)
let ibuf_block b n =
  if b.len < n + 1 then None
  else
    let term_len =
      if Bytes.get b.data (b.start + n) = '\r' then
        if b.len >= n + 2 && Bytes.get b.data (b.start + n + 1) = '\n' then 2
        else -1 (* \r arrived, \n still in flight *)
      else if Bytes.get b.data (b.start + n) = '\n' then 1
      else -2 (* malformed: data not followed by a terminator *)
    in
    if term_len = -1 then None
    else if term_len = -2 then Some None
    else begin
      let block = Bytes.sub_string b.data b.start n in
      b.len <- b.len - (n + term_len);
      b.start <- b.start + n + term_len;
      Some (Some block)
    end

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let key_of s =
  match int_of_string_opt s with
  | Some k when k >= 0 -> Some k
  | _ -> None

(* ------------------------------------------------------------------ *)
(* request side *)

(* Which txn op line a pending data block belongs to. *)
type tpending = P_set of int | P_cas of int * int

type rstate =
  | Cmd
  | Data of int * int (* key, remaining value length *)
  | Cas_data of int * int * int (* key, expected version, length *)
  | Tcmd of txn_op list (* inside txn ... exec; ops reversed *)
  | Tdata of txn_op list * tpending * int

type reader = { rb : ibuf; mutable rstate : rstate }

let reader () = { rb = ibuf (); rstate = Cmd }

let feed r buf n =
  ibuf_add r.rb buf n;
  let out = ref [] in
  let emit e = out := e :: !out in
  let rec go () =
    match r.rstate with
    | Data (key, len) -> (
      match ibuf_block r.rb len with
      | None -> ()
      | Some None ->
        r.rstate <- Cmd;
        emit (`Bad "bad data chunk");
        go ()
      | Some (Some v) ->
        r.rstate <- Cmd;
        emit (`Req (Set (key, v)));
        go ())
    | Cas_data (key, ver, len) -> (
      match ibuf_block r.rb len with
      | None -> ()
      | Some None ->
        r.rstate <- Cmd;
        emit (`Bad "bad data chunk");
        go ()
      | Some (Some v) ->
        r.rstate <- Cmd;
        emit (`Req (Cas { c_key = key; c_ver = ver; c_val = v }));
        go ())
    | Tdata (ops, pending, len) -> (
      match ibuf_block r.rb len with
      | None -> ()
      | Some None ->
        r.rstate <- Cmd;
        emit (`Bad "bad data chunk");
        go ()
      | Some (Some v) ->
        let op =
          match pending with
          | P_set k -> T_set (k, v)
          | P_cas (k, ver) -> T_cas (k, ver, v)
        in
        r.rstate <- Tcmd (op :: ops);
        go ())
    | Tcmd ops -> (
      match ibuf_line r.rb with
      | None -> ()
      | Some line ->
        (match split_words line with
        | [] -> ()
        | [ "exec" ] ->
          r.rstate <- Cmd;
          emit (`Req (Txn (List.rev ops)))
        | _ when List.length ops >= max_txn_ops ->
          r.rstate <- Cmd;
          emit (`Bad "txn too long")
        | [ "t"; "get"; k ] -> (
          match key_of k with
          | Some k -> r.rstate <- Tcmd (T_get k :: ops)
          | None ->
            r.rstate <- Cmd;
            emit (`Bad "bad key"))
        | [ "t"; "del"; k ] -> (
          match key_of k with
          | Some k -> r.rstate <- Tcmd (T_del k :: ops)
          | None ->
            r.rstate <- Cmd;
            emit (`Bad "bad key"))
        | [ "t"; "set"; k; n ] -> (
          match (key_of k, int_of_string_opt n) with
          | Some k, Some n when n >= 0 && n <= max_value_len ->
            r.rstate <- Tdata (ops, P_set k, n)
          | _ ->
            r.rstate <- Cmd;
            emit (`Bad "bad txn op"))
        | [ "t"; "cas"; k; ver; n ] -> (
          match (key_of k, int_of_string_opt ver, int_of_string_opt n) with
          | Some k, Some ver, Some n when ver >= 0 && n >= 0 && n <= max_value_len
            ->
            r.rstate <- Tdata (ops, P_cas (k, ver), n)
          | _ ->
            r.rstate <- Cmd;
            emit (`Bad "bad txn op"))
        | _ ->
          (* any other line aborts the accumulation: the connection is
             back at the command level, nothing was executed *)
          r.rstate <- Cmd;
          emit (`Bad "bad txn op"));
        go ())
    | Cmd -> (
      match ibuf_line r.rb with
      | None -> ()
      | Some line ->
        (match split_words line with
        | [] -> () (* stray blank line: ignore, as memcached does *)
        | [ "get"; k ] -> (
          match key_of k with
          | Some k -> emit (`Req (Get k))
          | None -> emit (`Bad "bad key"))
        | [ "del"; k ] -> (
          match key_of k with
          | Some k -> emit (`Req (Del k))
          | None -> emit (`Bad "bad key"))
        | [ "set"; k; n ] -> (
          match (key_of k, int_of_string_opt n) with
          | Some k, Some n when n >= 0 && n <= max_value_len ->
            r.rstate <- Data (k, n)
          | Some _, Some n when n > max_value_len ->
            emit (`Bad "value too large")
          | _ -> emit (`Bad "bad set command"))
        | [ "getv"; k ] -> (
          match key_of k with
          | Some k -> emit (`Req (Getv k))
          | None -> emit (`Bad "bad key"))
        | [ "cas"; k; ver; n ] -> (
          match (key_of k, int_of_string_opt ver, int_of_string_opt n) with
          | Some k, Some ver, Some n when ver >= 0 && n >= 0 && n <= max_value_len
            ->
            r.rstate <- Cas_data (k, ver, n)
          | Some _, Some ver, Some n when ver >= 0 && n > max_value_len ->
            emit (`Bad "value too large")
          | _ -> emit (`Bad "bad cas command"))
        | [ "scan"; a; b; l ] -> (
          match (key_of a, key_of b, int_of_string_opt l) with
          | Some a, Some b, Some l when l >= 1 && l <= max_scan_limit ->
            emit (`Req (Scan { sc_start = a; sc_stop = b; sc_limit = l }))
          | _ -> emit (`Bad "bad scan command"))
        | [ "txn" ] -> r.rstate <- Tcmd []
        | [ "exec" ] -> emit (`Bad "exec outside txn")
        | [ "stats" ] -> emit (`Req Stats)
        | [ "stats"; "metrics" ] -> emit (`Req Stats_metrics)
        | [ "quit" ] -> emit (`Req Quit)
        | [ "shutdown" ] -> emit (`Req Shutdown)
        | [ "repl"; mode; from ] -> (
          match (mode, int_of_string_opt from) with
          | ("sync" | "async"), Some from_seq when from_seq >= 1 ->
            emit (`Req (Repl { r_sync = mode = "sync"; r_from = from_seq }))
          | _ -> emit (`Bad "bad repl handshake"))
        | w :: _ -> emit (`Bad ("unknown command " ^ w)));
        go ())
  in
  go ();
  List.rev !out

(* Wire text is built in a [Buffer], numbers digit by digit: no
   [Printf] format is interpreted on the reply path. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* A space, then the decimal [n]. *)
let field b n =
  Buffer.add_char b ' ';
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let crlf b = Buffer.add_string b "\r\n"

(* A data block's bytes and their CRLF. *)
let data b v =
  Buffer.add_string b v;
  crlf b

let build size f =
  let b = Buffer.create size in
  f b;
  Buffer.contents b

let render = function
  | Value (k, v) ->
    build (String.length v + 32) (fun b ->
        Buffer.add_string b "VALUE";
        field b k;
        field b (String.length v);
        crlf b;
        data b v;
        Buffer.add_string b "END\r\n")
  | Miss -> "END\r\n"
  | Stored -> "STORED\r\n"
  | Deleted -> "DELETED\r\n"
  | Not_found -> "NOT_FOUND\r\n"
  | Version { v_key; v_ver; v_val = Some v } ->
    build (String.length v + 48) (fun b ->
        Buffer.add_string b "VERSION";
        field b v_key;
        field b v_ver;
        field b (String.length v);
        crlf b;
        data b v;
        Buffer.add_string b "END\r\n")
  | Version { v_key; v_ver; v_val = None } ->
    build 32 (fun b ->
        Buffer.add_string b "VMISS";
        field b v_key;
        field b v_ver;
        crlf b)
  | Cas_conflict cur ->
    build 32 (fun b ->
        Buffer.add_string b "CAS_CONFLICT";
        field b cur;
        crlf b)
  | Scan_reply items ->
    let n = List.length items in
    build (16 + (24 * n)) (fun b ->
        Buffer.add_string b "SCAN";
        field b n;
        crlf b;
        List.iter
          (fun { si_key; si_ver; si_val } ->
            match si_val with
            | Some v ->
              Buffer.add_string b "SVAL";
              field b si_key;
              field b si_ver;
              field b (String.length v);
              crlf b;
              data b v
            | None ->
              (* secret-colored entry: key and version only *)
              Buffer.add_string b "SKEY";
              field b si_key;
              field b si_ver;
              crlf b)
          items;
        Buffer.add_string b "END\r\n")
  | Txn_reply results ->
    build 128 (fun b ->
        Buffer.add_string b "TXN";
        field b (List.length results);
        crlf b;
        List.iter
          (function
            | R_value (Some v) ->
              Buffer.add_string b "RVAL";
              field b (String.length v);
              crlf b;
              data b v
            | R_value None -> Buffer.add_string b "RMISS\r\n"
            | R_stored -> Buffer.add_string b "RSTORED\r\n"
            | R_deleted -> Buffer.add_string b "RDELETED\r\n"
            | R_not_found -> Buffer.add_string b "RNOTFOUND\r\n")
          results;
        Buffer.add_string b "END\r\n")
  | Txn_abort { ta_key; ta_expected; ta_found } ->
    build 48 (fun b ->
        Buffer.add_string b "TXN_ABORT";
        field b ta_key;
        field b ta_expected;
        field b ta_found;
        crlf b)
  | Stats_reply kvs ->
    build 1024 (fun b ->
        List.iter
          (fun (k, v) ->
            Buffer.add_string b "STAT ";
            Buffer.add_string b k;
            Buffer.add_char b ' ';
            data b v)
          kvs;
        Buffer.add_string b "END\r\n")
  | Metrics_reply text ->
    (* exposition lines pass through verbatim; END closes the reply like
       a stats block so line-oriented clients know where to stop *)
    let text =
      if text = "" || String.ends_with ~suffix:"\n" text then text
      else text ^ "\n"
    in
    text ^ "END\r\n"
  | Busy -> "SERVER_BUSY\r\n"
  | Error_msg m -> "CLIENT_ERROR " ^ m ^ "\r\n"
  | Ok_msg -> "OK\r\n"

(* ------------------------------------------------------------------ *)
(* response side (load generator) *)

type pstate =
  | Line                          (* awaiting any response line *)
  | Vdata of int * int            (* VALUE seen: key, length *)
  | Vend of int * string          (* data read: awaiting END *)
  | Gdata of int * int * int      (* VERSION seen: key, version, length *)
  | Gend of int * int * string    (* version data read: awaiting END *)
  | Scn of scan_item list         (* inside SCAN ... END *)
  | Scn_data of scan_item list * int * int * int (* SVAL block pending *)
  | Txr of txn_result list        (* inside TXN ... END *)
  | Txr_data of txn_result list * int (* RVAL block pending *)
  | Stat of (string * string) list

type resp_reader = { pb : ibuf; mutable pstate : pstate }

let resp_reader () = { pb = ibuf (); pstate = Line }

let feed_resp p buf n =
  ibuf_add p.pb buf n;
  let out = ref [] in
  let emit r = out := r :: !out in
  let rec go () =
    match p.pstate with
    | Vdata (key, len) -> (
      match ibuf_block p.pb len with
      | None -> ()
      | Some None ->
        p.pstate <- Line;
        emit (Error_msg "malformed VALUE block");
        go ()
      | Some (Some v) ->
        p.pstate <- Vend (key, v);
        go ())
    | Gdata (key, ver, len) -> (
      match ibuf_block p.pb len with
      | None -> ()
      | Some None ->
        p.pstate <- Line;
        emit (Error_msg "malformed VERSION block");
        go ()
      | Some (Some v) ->
        p.pstate <- Gend (key, ver, v);
        go ())
    | Scn_data (items, key, ver, len) -> (
      match ibuf_block p.pb len with
      | None -> ()
      | Some None ->
        p.pstate <- Line;
        emit (Error_msg "malformed SVAL block");
        go ()
      | Some (Some v) ->
        p.pstate <-
          Scn ({ si_key = key; si_ver = ver; si_val = Some v } :: items);
        go ())
    | Txr_data (results, len) -> (
      match ibuf_block p.pb len with
      | None -> ()
      | Some None ->
        p.pstate <- Line;
        emit (Error_msg "malformed RVAL block");
        go ()
      | Some (Some v) ->
        p.pstate <- Txr (R_value (Some v) :: results);
        go ())
    | st -> (
      match ibuf_line p.pb with
      | None -> ()
      | Some line ->
        (match (st, split_words line) with
        | Vend (k, v), [ "END" ] ->
          p.pstate <- Line;
          emit (Value (k, v))
        | Vend _, _ ->
          p.pstate <- Line;
          emit (Error_msg "missing END after VALUE")
        | Gend (k, ver, v), [ "END" ] ->
          p.pstate <- Line;
          emit (Version { v_key = k; v_ver = ver; v_val = Some v })
        | Gend _, _ ->
          p.pstate <- Line;
          emit (Error_msg "missing END after VERSION")
        | Scn items, [ "END" ] ->
          p.pstate <- Line;
          emit (Scan_reply (List.rev items))
        | Scn items, [ "SKEY"; k; ver ] -> (
          match (key_of k, int_of_string_opt ver) with
          | Some k, Some ver when ver >= 0 ->
            p.pstate <- Scn ({ si_key = k; si_ver = ver; si_val = None } :: items)
          | _ ->
            p.pstate <- Line;
            emit (Error_msg ("bad SKEY line: " ^ line)))
        | Scn items, [ "SVAL"; k; ver; n ] -> (
          match (key_of k, int_of_string_opt ver, int_of_string_opt n) with
          | Some k, Some ver, Some n when ver >= 0 && n >= 0 && n <= max_value_len
            ->
            p.pstate <- Scn_data (items, k, ver, n)
          | _ ->
            p.pstate <- Line;
            emit (Error_msg ("bad SVAL line: " ^ line)))
        | Scn _, _ ->
          p.pstate <- Line;
          emit (Error_msg ("unexpected line in scan: " ^ line))
        | Txr results, [ "END" ] ->
          p.pstate <- Line;
          emit (Txn_reply (List.rev results))
        | Txr results, [ "RVAL"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 && n <= max_value_len ->
            p.pstate <- Txr_data (results, n)
          | _ ->
            p.pstate <- Line;
            emit (Error_msg ("bad RVAL line: " ^ line)))
        | Txr results, [ "RMISS" ] -> p.pstate <- Txr (R_value None :: results)
        | Txr results, [ "RSTORED" ] -> p.pstate <- Txr (R_stored :: results)
        | Txr results, [ "RDELETED" ] -> p.pstate <- Txr (R_deleted :: results)
        | Txr results, [ "RNOTFOUND" ] ->
          p.pstate <- Txr (R_not_found :: results)
        | Txr _, _ ->
          p.pstate <- Line;
          emit (Error_msg ("unexpected line in txn reply: " ^ line))
        | Stat kvs, [ "END" ] ->
          p.pstate <- Line;
          emit (Stats_reply (List.rev kvs))
        | Stat kvs, "STAT" :: k :: rest ->
          p.pstate <- Stat ((k, String.concat " " rest) :: kvs)
        | Stat kvs, _ ->
          p.pstate <- Line;
          emit (Stats_reply (List.rev kvs));
          emit (Error_msg ("unexpected line in stats: " ^ line))
        | Line, [ "VALUE"; k; n ] -> (
          match (key_of k, int_of_string_opt n) with
          | Some k, Some n when n >= 0 && n <= max_value_len ->
            p.pstate <- Vdata (k, n)
          | _ -> emit (Error_msg ("bad VALUE line: " ^ line)))
        | Line, [ "VERSION"; k; ver; n ] -> (
          match (key_of k, int_of_string_opt ver, int_of_string_opt n) with
          | Some k, Some ver, Some n when ver >= 0 && n >= 0 && n <= max_value_len
            ->
            p.pstate <- Gdata (k, ver, n)
          | _ -> emit (Error_msg ("bad VERSION line: " ^ line)))
        | Line, [ "VMISS"; k; ver ] -> (
          match (key_of k, int_of_string_opt ver) with
          | Some k, Some ver when ver >= 0 ->
            emit (Version { v_key = k; v_ver = ver; v_val = None })
          | _ -> emit (Error_msg ("bad VMISS line: " ^ line)))
        | Line, [ "CAS_CONFLICT"; c ] -> (
          match int_of_string_opt c with
          | Some c when c >= 0 -> emit (Cas_conflict c)
          | _ -> emit (Error_msg ("bad CAS_CONFLICT line: " ^ line)))
        | Line, [ "SCAN"; _n ] -> p.pstate <- Scn []
        | Line, [ "TXN"; _n ] -> p.pstate <- Txr []
        | Line, [ "TXN_ABORT"; k; e; f ] -> (
          match (key_of k, int_of_string_opt e, int_of_string_opt f) with
          | Some k, Some e, Some f when e >= 0 && f >= 0 ->
            emit (Txn_abort { ta_key = k; ta_expected = e; ta_found = f })
          | _ -> emit (Error_msg ("bad TXN_ABORT line: " ^ line)))
        | Line, [ "END" ] -> emit Miss
        | Line, [ "STORED" ] -> emit Stored
        | Line, [ "DELETED" ] -> emit Deleted
        | Line, [ "NOT_FOUND" ] -> emit Not_found
        | Line, [ "SERVER_BUSY" ] -> emit Busy
        | Line, [ "OK" ] -> emit Ok_msg
        | Line, "STAT" :: k :: rest ->
          p.pstate <- Stat [ (k, String.concat " " rest) ]
        | Line, "CLIENT_ERROR" :: rest ->
          emit (Error_msg (String.concat " " rest))
        | Line, [] -> ()
        | Line, _ -> emit (Error_msg ("unknown response: " ^ line))
        | (Vdata _ | Gdata _ | Scn_data _ | Txr_data _), _ ->
          assert false (* consumed by the outer match *));
        go ())
  in
  go ();
  List.rev !out

let render_request = function
  | Get k -> build 24 (fun b -> Buffer.add_string b "get"; field b k; crlf b)
  | Set (k, v) ->
    build (String.length v + 32) (fun b ->
        Buffer.add_string b "set";
        field b k;
        field b (String.length v);
        crlf b;
        data b v)
  | Del k -> build 24 (fun b -> Buffer.add_string b "del"; field b k; crlf b)
  | Getv k -> build 24 (fun b -> Buffer.add_string b "getv"; field b k; crlf b)
  | Cas { c_key; c_ver; c_val } ->
    build (String.length c_val + 48) (fun b ->
        Buffer.add_string b "cas";
        field b c_key;
        field b c_ver;
        field b (String.length c_val);
        crlf b;
        data b c_val)
  | Scan { sc_start; sc_stop; sc_limit } ->
    build 48 (fun b ->
        Buffer.add_string b "scan";
        field b sc_start;
        field b sc_stop;
        field b sc_limit;
        crlf b)
  | Txn ops ->
    build 128 (fun b ->
        Buffer.add_string b "txn\r\n";
        List.iter
          (function
            | T_get k ->
              Buffer.add_string b "t get";
              field b k;
              crlf b
            | T_set (k, v) ->
              Buffer.add_string b "t set";
              field b k;
              field b (String.length v);
              crlf b;
              data b v
            | T_del k ->
              Buffer.add_string b "t del";
              field b k;
              crlf b
            | T_cas (k, ver, v) ->
              Buffer.add_string b "t cas";
              field b k;
              field b ver;
              field b (String.length v);
              crlf b;
              data b v)
          ops;
        Buffer.add_string b "exec\r\n")
  | Stats -> "stats\r\n"
  | Stats_metrics -> "stats metrics\r\n"
  | Quit -> "quit\r\n"
  | Shutdown -> "shutdown\r\n"
  | Repl { r_sync; r_from } ->
    build 32 (fun b ->
        Buffer.add_string b (if r_sync then "repl sync" else "repl async");
        field b r_from;
        crlf b)
