(* Multi-key transactions over the colored store (ISSUE 9 tentpole,
   part 1).

   The transaction layer sits *outside* the enclave: it orders and
   validates operations, but every value read or write still goes
   through the store's own entry points (the [store_ops] callbacks),
   i.e. through classify/declassify at the partition boundary. The
   layer keeps, in unsafe memory, only what the color rule allows it
   to keep: the per-key table of {!module:Index} (version, stored
   length, and value bytes for color "U" only), and for color "U" a
   hash index from value fingerprints back to keys.

   Concurrency model: the caller (the server's shard core, or a test)
   runs [execute]/[note_put]/[note_del] under the lock that serializes
   the shard's commits (its latch). A transaction therefore executes
   atomically at a commit point: its snapshot is the committed state at
   that point, reads see the transaction's own buffered writes, and
   conflict detection is first-writer-wins — a CAS guard compares the
   version the client observed (via [getv]) against the committed
   version, so whichever writer committed first wins and the later CAS
   aborts. Whoever holds the latch calls [publish] just before
   releasing it, so the published table only ever shows whole latch
   holds, and a reader may take it without the latch.

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

module IntSet = Set.Make (Int)

type t = {
  cache_bytes : bool;  (* the values are color "U" *)
  mutable keys : Index.t;  (* the per-key table; under the latch *)
  published : Index.t Atomic.t;  (* [keys] as of the last release *)
  by_value : (int64, IntSet.t) Hashtbl.t;  (* fingerprint -> keys; "U" only *)
  commits : int Atomic.t;
  aborts : int Atomic.t;
}

let create ~value_color () =
  {
    cache_bytes = String.equal value_color Index.unprotected_color;
    keys = Index.empty;
    published = Atomic.make Index.empty;
    by_value = Hashtbl.create 64;
    commits = Atomic.make 0;
    aborts = Atomic.make 0;
  }

let commits t = Atomic.get t.commits
let aborts t = Atomic.get t.aborts
let version t key = Index.version t.keys key
let length t key = Index.length t.keys key
let publish t = Atomic.set t.published t.keys
let published t = Atomic.get t.published

(* FNV-1a, 64-bit, over the raw value bytes. *)
let fingerprint (s : string) : int64 =
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001b3L)
    s;
  !h

let keys_with t fp = Option.value ~default:IntSet.empty (Hashtbl.find_opt t.by_value fp)

(* Drop [key]'s cached bytes from the hash index. *)
let unmap t key =
  match Index.value t.keys key with
  | None -> ()
  | Some old ->
    let fp = fingerprint old in
    let set = IntSet.remove key (keys_with t fp) in
    if IntSet.is_empty set then Hashtbl.remove t.by_value fp
    else Hashtbl.replace t.by_value fp set

(* Commit-point hooks: the server calls these for every committed write
   — plain set/del, CAS, transaction, replicated delta — so versions and
   the table advance identically on primaries and replicas. The color
   rule is enforced here, not trusted from the caller: a secret-colored
   value contributes nothing derived from its bytes — no cached copy,
   no fingerprint — so it is structurally unreachable through the
   table, not merely access-checked. *)
let note_put t ~key ~value =
  let ver = version t key + 1 in
  let cached =
    if t.cache_bytes then begin
      unmap t key;
      let fp = fingerprint value in
      Hashtbl.replace t.by_value fp (IntSet.add key (keys_with t fp));
      Some value
    end
    else None
  in
  t.keys <- Index.add t.keys ~key ~ver ~len:(String.length value) ~value:cached

let note_del t ~key =
  unmap t key;
  t.keys <- Index.del t.keys ~key ~ver:(version t key + 1)

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
    | None -> Index.mem (t_of key).keys key
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
       store's own entry points, advancing the per-key table. The
       caller holds the commit lock, so the run is contiguous and can
       be shipped as one replication batch. Phase 1 already rejected
       inapplicable writes, so a failure here is a store malfunction —
       the applied prefix is committed state (the table advanced), and
       it is returned so the caller can still ship it to replicas
       instead of silently diverging from them. *)
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

let scan t ~start ~stop ~limit = Index.range [| t.keys |] ~start ~stop ~limit

let lookup t ~value = IntSet.elements (keys_with t (fingerprint value))
