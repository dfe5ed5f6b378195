(* The per-key table of one shard: an immutable AVL tree keyed by the
   primary key, one node per key ever written. A node holds everything the
   layer keeps about a key in unsafe memory — its committed version,
   its stored length and, for color "U" only, the cached value bytes —
   inline, so a secret-colored key costs one 8-word node and nothing
   else (DESIGN.md §8.13). A deleted key leaves a tombstone node.

   Immutability is what makes the table publishable: the shard's
   writer replaces its root under the shard latch, and a reader holding
   an older root keeps a consistent snapshot of the whole table without
   any lock. [range] merges several such snapshots (one per shard) with
   a bounded k-way walk that allocates only the items it returns. *)

type t =
  | Empty
  | Node of {
      l : t;
      key : int;
      ver : int;
      len : int;  (* [tombstone] once deleted *)
      value : string option;  (* [Some bytes] only for color "U" *)
      r : t;
      h : int;
    }

type item = { si_key : int; si_ver : int; si_val : string option }

let unprotected_color = "U"
let empty = Empty

let height = function Empty -> 0 | Node n -> n.h

(* [nd]'s key and payload over new children. *)
let join l nd r =
  match nd with
  | Node n ->
    let hl = height l and hr = height r in
    Node { n with l; r; h = (if hl >= hr then hl + 1 else hr + 1) }
  | Empty -> assert false

(* AVL rebalancing, as in Stdlib.Map: [l] and [r] differ in height by
   at most 3. *)
let bal l nd r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; r = lr; _ } -> (
      if height ll >= height lr then join ll l (join lr nd r)
      else
        match lr with
        | Node { l = lrl; r = lrr; _ } -> join (join ll l lrl) lr (join lrr nd r)
        | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; r = rr; _ } -> (
      if height rr >= height rl then join (join l nd rl) r rr
      else
        match rl with
        | Node { l = rll; r = rlr; _ } -> join (join l nd rll) rl (join rlr r rr)
        | Empty -> assert false)
    | Empty -> assert false
  else join l nd r

let rec add t ~key ~ver ~len ~value =
  match t with
  | Empty -> Node { l = Empty; key; ver; len; value; r = Empty; h = 1 }
  | Node n as nd ->
    if key = n.key then Node { n with ver; len; value }
    else if key < n.key then bal (add n.l ~key ~ver ~len ~value) nd n.r
    else bal n.l nd (add n.r ~key ~ver ~len ~value)

(* A deleted key stays as a tombstone that keeps its version: a key
   deleted and written again must not reuse a version a CAS guard may
   have observed. *)
let tombstone = -1

let del t ~key ~ver = add t ~key ~ver ~len:tombstone ~value:None

(* The node holding [key], or [Empty]: lookups allocate nothing. *)
let rec find t key =
  match t with
  | Empty -> Empty
  | Node n as nd -> if key = n.key then nd else find (if key < n.key then n.l else n.r) key

let version t key = match find t key with Node n -> n.ver | Empty -> 0
let length t key =
  match find t key with Node n when n.len <> tombstone -> Some n.len | _ -> None

let value t key = match find t key with Node n -> n.value | Empty -> None
let mem t key = length t key <> None

(* ------------------------------------------------------------------ *)
(* the bounded k-way range walk *)

(* An in-order cursor: the nodes still to visit, as a stack whose top
   is the next key. A tree of height h never needs more than h slots. *)
type cursor = { stack : t array; mutable sp : int }

(* Push the nodes of [t] with key >= [start] along its left spine. *)
let rec seek c start = function
  | Empty -> ()
  | Node n as nd ->
    if n.key >= start then begin
      c.stack.(c.sp) <- nd;
      c.sp <- c.sp + 1;
      seek c start n.l
    end
    else seek c start n.r

let cursor start t =
  let c = { stack = Array.make (height t) Empty; sp = 0 } in
  seek c start t;
  c

(* The cursor whose next key is smallest and <= [stop], or -1. Shards
   partition the key space, so two cursors never tie. *)
let next cs stop =
  let best = ref (-1) and best_key = ref 0 in
  for i = 0 to Array.length cs - 1 do
    let c = cs.(i) in
    if c.sp > 0 then
      match c.stack.(c.sp - 1) with
      | Node n when n.key <= stop && (!best < 0 || n.key < !best_key) ->
        best := i;
        best_key := n.key
      | _ -> ()
  done;
  !best

let[@tail_mod_cons] rec walk cs stop limit =
  if limit = 0 then []
  else
    let i = next cs stop in
    if i < 0 then []
    else
      let c = cs.(i) in
      c.sp <- c.sp - 1;
      match c.stack.(c.sp) with
      | Node n ->
        c.stack.(c.sp) <- Empty;
        seek c n.key n.r;
        if n.len = tombstone then walk cs stop limit
        else { si_key = n.key; si_ver = n.ver; si_val = n.value } :: walk cs stop (limit - 1)
      | Empty -> assert false

let range ts ~start ~stop ~limit =
  if limit <= 0 || stop < start then []
  else walk (Array.map (cursor start) ts) stop limit
