(** The memcached-lite text protocol of the serving layer.

    Requests are CRLF- (or LF-) terminated lines; [set] carries a data
    block of exactly the announced length after its command line, as in
    memcached's storage commands:

    {v
    get <key>                          VALUE <key> <len>\r\n<data>\r\nEND
                                       (miss: END)
    set <key> <len>\r\n<data>          STORED
    del <key>                          DELETED | NOT_FOUND
    getv <key>                         VERSION <key> <ver> <len>\r\n<data>\r\nEND
                                       (miss: VMISS <key> 0)
    cas <key> <ver> <len>\r\n<data>    STORED | CAS_CONFLICT <cur> | NOT_FOUND
    scan <start> <stop> <limit>        SCAN <n>, then per item
                                       SVAL <key> <ver> <len>\r\n<data>  (color U)
                                       SKEY <key> <ver>                  (secret)
                                       closed by END
    txn                                TXN <n>, then per op
      t get <key>                        RVAL <len>\r\n<data> | RMISS
      t set <key> <len>\r\n<data>        RSTORED
      t del <key>                        RDELETED | RNOTFOUND
      t cas <key> <ver> <len>\r\n<data>  RSTORED
    exec                               closed by END; on a failed CAS
                                       guard: TXN_ABORT <key> <exp> <found>
    stats                              STAT <name> <value>... END
    stats metrics                      Prometheus exposition text... END
    quit                               (connection closed)
    shutdown                           OK, then the server drains
    v}

    Keys are non-negative integers (the partitioned programs' entry
    points take integer keys). Above the configured queue high-water
    mark a shedding server answers [SERVER_BUSY]; malformed input gets
    [CLIENT_ERROR <msg>] without closing the connection.

    Both sides of the protocol parse incrementally: {!reader} consumes
    request bytes (server side), {!resp_reader} consumes response bytes
    (load-generator side). Neither ever blocks — they hold partial input
    until more bytes are fed. *)

(** Transaction ops as they travel on the wire — re-exported from the
    txn layer so the server can hand them straight to the executor. *)
type txn_op = Privagic_txn.Txn.op =
  | T_get of int
  | T_set of int * string
  | T_del of int
  | T_cas of int * int * string  (** key, expected version, value *)

type txn_result = Privagic_txn.Txn.op_result =
  | R_value of string option
  | R_stored
  | R_deleted
  | R_not_found

type request =
  | Get of int
  | Set of int * string  (** key, exact value bytes *)
  | Del of int
  | Getv of int
      (** get with version — the read half of a CAS round trip *)
  | Cas of { c_key : int; c_ver : int; c_val : string }
      (** conditional write: succeeds iff the committed version still
          equals [c_ver] (0 = insert-if-absent) *)
  | Scan of { sc_start : int; sc_stop : int; sc_limit : int }
      (** range scan over the ordered secondary index, inclusive bounds *)
  | Txn of txn_op list
      (** [txn ... exec] — executed atomically at one commit point *)
  | Stats
  | Stats_metrics
      (** [stats metrics] — live metrics exposition (lib/obs): the reply
          is the server registry rendered in Prometheus text format,
          closed by an END line *)
  | Quit
  | Shutdown
  | Repl of { r_sync : bool; r_from : int }
      (** [repl <sync|async> <from_seq>] — replication handshake: the
          sender is a replica asking for the delta stream starting at
          [r_from] (1-based). Once its earlier replies flush, the
          connection leaves the request path and becomes a replication
          link of the shard loop that read it; the replica must send
          nothing further until it has received frames. *)

(** One range-scan result. [si_val] carries the value bytes only when
    the indexed value is unprotected (color "U"); a secret-colored entry
    answers with key and version alone — the color-inheritance rule for
    index entries, enforced in lib/txn, whose per-key tables produce
    these records directly. *)
type scan_item = Privagic_txn.Index.item = {
  si_key : int;
  si_ver : int;
  si_val : string option;
}

type response =
  | Value of int * string  (** hit: key, stored bytes *)
  | Miss
  | Stored
  | Deleted
  | Not_found
  | Version of { v_key : int; v_ver : int; v_val : string option }
      (** getv reply; [None] = miss (VMISS on the wire) *)
  | Cas_conflict of int
      (** the committed version the CAS lost against (first writer wins) *)
  | Scan_reply of scan_item list
  | Txn_reply of txn_result list  (** committed: one result per op *)
  | Txn_abort of { ta_key : int; ta_expected : int; ta_found : int }
      (** a CAS guard failed; nothing was written *)
  | Stats_reply of (string * string) list
  | Metrics_reply of string
      (** Prometheus exposition text, sent verbatim ("\n" line endings)
          and closed by [END\r\n]. Not parsed by {!resp_reader} — probes
          read the raw stream up to the END line. *)
  | Busy                   (** SERVER_BUSY: shed above the high-water mark *)
  | Error_msg of string    (** CLIENT_ERROR *)
  | Ok_msg

(** Values longer than this are rejected at parse time
    ([CLIENT_ERROR value too large]), bounding per-connection memory. *)
val max_value_len : int

(** Scans return at most this many items per request. *)
val max_scan_limit : int

(** {1 Server side: request parsing} *)

type reader

val reader : unit -> reader

(** Feed [len] bytes from [buf]; returns the complete requests (and
    protocol errors, which the server answers in order) recognized so
    far, in arrival order. Partial input is retained. *)
val feed : reader -> bytes -> int -> [ `Req of request | `Bad of string ] list

val render : response -> string

(** {1 Client side: response parsing} *)

type resp_reader

val resp_reader : unit -> resp_reader

val feed_resp : resp_reader -> bytes -> int -> response list

(** Render a request on the wire (load generator / tests). *)
val render_request : request -> string
