(* Secondary indexes over the colored store (ISSUE 9 tentpole, part 2).

   Two structures, both living in *unsafe* memory (plain OCaml heap on
   the untrusted side of the partition):

   - an ordered index: one immutable [IntMap] keyed by the primary
     key. Each server shard owns its own index, so a range scan is one
     ascending walk here; the server merges the shards' cursors.

   - a hash index: a 64-bit FNV-1a fingerprint of the value bytes
     mapping back to the set of primary keys currently holding those
     bytes ("find the accounts whose value equals V").

   The color-inheritance rule: an index entry inherits the color of
   the value it indexes. Since the index itself is unsafe memory, a
   secret-colored value may contribute *nothing derived from its
   bytes* to the index — no cached copy, no fingerprint. Entries for
   secret values therefore carry only (key, version, length), and the
   hash index simply has no entry for them: a secret value is
   structurally unreachable through the unprotected index, not merely
   access-checked. Only values of color "U" (unprotected) are cached
   and fingerprinted. [put] enforces this regardless of what the
   caller passes. *)

module IntMap = Map.Make (Int)

type entry = {
  e_key : int;
  e_version : int;
  e_len : int;
  e_color : string;
  e_value : string option;
      (* [Some bytes] iff [e_color = "U"]; never for secret colors *)
}

type t = {
  mutable ordered : entry IntMap.t;
  hash : (int64, unit IntMap.t) Hashtbl.t; (* fingerprint -> key set *)
  fp_of_key : (int, int64) Hashtbl.t; (* reverse map, for maintenance *)
}

let unprotected_color = "U"

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

let create () =
  { ordered = IntMap.empty; hash = Hashtbl.create 64; fp_of_key = Hashtbl.create 64 }

let hash_remove t key =
  match Hashtbl.find_opt t.fp_of_key key with
  | None -> ()
  | Some fp ->
    Hashtbl.remove t.fp_of_key key;
    (match Hashtbl.find_opt t.hash fp with
    | None -> ()
    | Some set ->
      let set = IntMap.remove key set in
      if IntMap.is_empty set then Hashtbl.remove t.hash fp
      else Hashtbl.replace t.hash fp set)

let hash_add t key fp =
  Hashtbl.replace t.fp_of_key key fp;
  let set =
    match Hashtbl.find_opt t.hash fp with
    | None -> IntMap.empty
    | Some s -> s
  in
  Hashtbl.replace t.hash fp (IntMap.add key () set)

let put t ~key ~version ~len ~color ~value =
  (* The color rule is enforced here, not trusted from the caller: a
     secret-colored value never lands in unsafe index memory. *)
  let cached = if String.equal color unprotected_color then value else None in
  let e = { e_key = key; e_version = version; e_len = len; e_color = color; e_value = cached } in
  t.ordered <- IntMap.add key e t.ordered;
  hash_remove t key;
  match cached with None -> () | Some v -> hash_add t key (fingerprint v)

let del t ~key =
  t.ordered <- IntMap.remove key t.ordered;
  hash_remove t key

let find t key = IntMap.find_opt key t.ordered
let mem t key = IntMap.mem key t.ordered
let cardinal t = IntMap.cardinal t.ordered

let range t ~start ~stop ~limit =
  if limit <= 0 || stop < start then []
  else
    IntMap.to_seq_from start t.ordered
    |> Seq.take_while (fun (k, _) -> k <= stop)
    |> Seq.take limit |> Seq.map snd |> List.of_seq

(* Hash-index lookup by value bytes. For secret-colored values this is
   empty by construction: their fingerprints were never computed. *)
let lookup t value =
  match Hashtbl.find_opt t.hash (fingerprint value) with
  | None -> []
  | Some set ->
    IntMap.fold
      (fun key () acc ->
        match find t key with Some e -> e :: acc | None -> acc)
      set []
    |> List.rev
