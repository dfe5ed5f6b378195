(* Multi-key transactions over the colored store (ISSUE 9 tentpole,
   part 1).

   The transaction layer sits *outside* the enclave: it orders and
   validates operations, but every value read or write still goes
   through the store's own entry points (the [store_ops] callbacks),
   i.e. through classify/declassify at the partition boundary. The
   layer keeps, in unsafe memory, only what the color rule allows it
   to keep: per-key versions, and the secondary indexes of
   {!module:Index}.

   Concurrency model: the caller (the server's executor, or a test)
   runs [execute]/[scan]/[note_put]/[note_del] under the same mutex
   that serializes store commits ([store_mu] in lib/server). A
   transaction therefore executes atomically at a store commit point:
   its snapshot is the committed state at that point, reads see the
   transaction's own buffered writes, and conflict detection is
   first-writer-wins — a CAS guard compares the version the client
   observed (via [getv]) against the committed version, so whichever
   writer committed first wins and the later CAS aborts.

   Commit emits the transaction's writes as one contiguous run at the
   commit point; the server turns that run into a single replication
   delta batch, and replicas converge by replaying the same writes
   through [note_put]/[note_del]. *)

type store_ops = {
  o_get : int -> (string option, string) result;
  o_set : int -> string -> (unit, string) result;
  o_del : int -> (bool, string) result;
  o_max_value : int;
  o_can_del : bool;
}

type op =
  | T_get of int
  | T_set of int * string
  | T_del of int
  | T_cas of int * int * string  (* key, expected version, value *)

type op_result =
  | R_value of string option
  | R_stored
  | R_deleted
  | R_not_found

type write = W_put of { w_key : int; w_value : string } | W_del of { w_key : int }

type abort = { a_key : int; a_expected : int; a_found : int }

type outcome =
  | Committed of op_result list * write list
  | Aborted of abort
  | Failed of { f_msg : string; f_applied : write list }
      (* a write was inapplicable (phase 1, [f_applied] = []) or — not
         expected after phase-1 gating — a store callback failed
         mid-apply; [f_applied] is the committed prefix the caller must
         still ship to replicas *)

type t = {
  idx : Index.t;
  versions : (int, int) Hashtbl.t;  (* absent = version 0 *)
  value_color : string;
  commits : int Atomic.t;
  aborts : int Atomic.t;
  scans : int Atomic.t;
  scan_items : int Atomic.t;
}

let create ~value_color () =
  {
    idx = Index.create ();
    versions = Hashtbl.create 256;
    value_color;
    commits = Atomic.make 0;
    aborts = Atomic.make 0;
    scans = Atomic.make 0;
    scan_items = Atomic.make 0;
  }

let index t = t.idx
let value_color t = t.value_color
let commits t = Atomic.get t.commits
let aborts t = Atomic.get t.aborts
let scans t = Atomic.get t.scans
let scan_items t = Atomic.get t.scan_items

let version t key = Option.value ~default:0 (Hashtbl.find_opt t.versions key)

let bump t key =
  let v = version t key + 1 in
  Hashtbl.replace t.versions key v;
  v

(* Commit-point hooks for non-transactional writes: the server calls
   these for every plain set/del and for every replicated delta it
   applies, so versions and indexes advance identically on primaries
   and replicas. *)
let note_put t ~key ~value =
  let v = bump t key in
  Index.put t.idx ~key ~version:v ~len:(String.length value) ~color:t.value_color
    ~value:(Some value)

let note_del t ~key =
  let _v = bump t key in
  Index.del t.idx ~key

(* The routed core: every per-key access — snapshot read, version
   lookup, presence check, applicability limit, apply callback, commit
   hook — goes through [route key], so one transaction can span several
   independently-owned (t, store) shards. The caller must hold whatever
   serializes commits on *every* routed shard for the whole call (the
   sharded server takes the participant latches in ascending shard
   order — its two-phase commit); [coord] owns the commit/abort
   counters, so summing them across shards never double-counts. *)
let execute_routed ~(route : int -> t * store_ops) ~(coord : t) ops =
  let t_of key = fst (route key) in
  let s_of key = snd (route key) in
  (* Phase 1: validate every op against the snapshot and buffer the
     writes; nothing touches the store, so an abort leaves no trace.
     Applicability is part of validation: a write the store would
     reject in phase 2 — an oversize value, a del on a store without a
     del entry — fails the whole transaction *here*, before anything
     is applied, so phase 2 cannot stop halfway and break atomicity. *)
  let buffered : (int, string option) Hashtbl.t = Hashtbl.create 8 in
  let present key =
    match Hashtbl.find_opt buffered key with
    | Some v -> v <> None
    | None -> Index.mem (t_of key).idx key
  in
  let check_size key value =
    let limit = (s_of key).o_max_value in
    if String.length value > limit then
      Some (Printf.sprintf "value exceeds store value size %d" limit)
    else None
  in
  let rec validate results writes = function
    | [] -> Ok (List.rev results, List.rev writes)
    | op :: rest -> (
      match op with
      | T_get key -> (
        let v =
          match Hashtbl.find_opt buffered key with
          | Some v -> Ok v  (* read your own buffered write *)
          | None -> (s_of key).o_get key
        in
        match v with
        | Ok v -> validate (R_value v :: results) writes rest
        | Error e -> Error (`Fail e))
      | T_set (key, value) -> (
        match check_size key value with
        | Some e -> Error (`Fail e)
        | None ->
          Hashtbl.replace buffered key (Some value);
          validate (R_stored :: results)
            (W_put { w_key = key; w_value = value } :: writes)
            rest)
      | T_del key ->
        if present key then
          if not (s_of key).o_can_del then
            Error (`Fail "del not supported by the store")
          else begin
            Hashtbl.replace buffered key None;
            validate (R_deleted :: results) (W_del { w_key = key } :: writes) rest
          end
        else validate (R_not_found :: results) writes rest
      | T_cas (key, expect, value) ->
        (* First-writer-wins: the guard compares against the version
           committed when this transaction took its snapshot; a write
           committed since the client's [getv] makes the CAS lose. *)
        let found = version (t_of key) key in
        if found <> expect then
          Error (`Abort { a_key = key; a_expected = expect; a_found = found })
        else (
          match check_size key value with
          | Some e -> Error (`Fail e)
          | None ->
            Hashtbl.replace buffered key (Some value);
            validate (R_stored :: results)
              (W_put { w_key = key; w_value = value } :: writes)
              rest))
  in
  match validate [] [] ops with
  | Error (`Abort a) ->
    Atomic.incr coord.aborts;
    Aborted a
  | Error (`Fail e) -> Failed { f_msg = e; f_applied = [] }
  | Ok (results, writes) -> (
    (* Phase 2: apply the buffered writes in op order through the
       store's own entry points, advancing versions and indexes. The
       caller holds the commit mutex, so the run is contiguous and can
       be shipped as one replication batch. Phase 1 already rejected
       inapplicable writes, so a failure here is a store malfunction —
       the applied prefix is committed state (versions and indexes
       advanced), and it is returned so the caller can still ship it
       to replicas instead of silently diverging from them. *)
    let applied = ref [] in
    let rec apply = function
      | [] -> None
      | (W_put { w_key; w_value } as w) :: rest -> (
        match (s_of w_key).o_set w_key w_value with
        | Ok () ->
          note_put (t_of w_key) ~key:w_key ~value:w_value;
          applied := w :: !applied;
          apply rest
        | Error e -> Some e)
      | (W_del { w_key } as w) :: rest -> (
        match (s_of w_key).o_del w_key with
        | Ok _ ->
          note_del (t_of w_key) ~key:w_key;
          applied := w :: !applied;
          apply rest
        | Error e -> Some e)
    in
    match apply writes with
    | Some e -> Failed { f_msg = e; f_applied = List.rev !applied }
    | None ->
      Atomic.incr coord.commits;
      Committed (results, writes))

(* The single-shard case: every key routes to the same layer/store. *)
let execute t store ops = execute_routed ~route:(fun _ -> (t, store)) ~coord:t ops

let scan t ~start ~stop ~limit =
  let items = Index.range t.idx ~start ~stop ~limit in
  Atomic.incr t.scans;
  ignore (Atomic.fetch_and_add t.scan_items (List.length items));
  items

let lookup t ~value = Index.lookup t.idx value
