(* Set-associative LRU cache model, used for the L1, the shared LLC, and —
   at page granularity — the EPC working set. Addresses are simulated byte
   addresses. The model only answers hit/miss; latencies live in [Cost].

   Sets are allocated on first touch. A machine-B EPC model has 131 072
   sets of 16 ways and its LLC 32 768 of 15, but a run touches a few
   hundred of them, so the sets live in chunks of up to 256 that a
   directory points at. Until a chunk is first written, its directory slot
   points at [blank], one shared all-empty chunk that is never written:
   every set in it has length 0, so a lookup there is a plain miss and the
   hit path needs no allocated-yet test. Laziness changes no answer: the
   hit/miss sequence, and so every counter derived from it, is the same as
   with every set allocated up front. *)

type t = {
  line_bits : int;              (* log2 of the line (or page) size *)
  set_bits : int;               (* log2 of the number of sets *)
  assoc : int;
  stride : int;                 (* assoc + 1 words per set *)
  chunk_bits : int;             (* log2 of the sets per chunk *)
  dir : int array array;
      (* chunk [i] holds sets [i lsl chunk_bits ..]; each set is its valid
         length followed by [assoc] tags in LRU order (first = MRU) *)
  blank : int array;            (* the shared unwritten chunk *)
  mutable accesses : int;
  mutable misses : int;
}

let max_chunk_bits = 8

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

(* [create ~size_bytes ~line_bytes ~assoc] builds a cache of the given total
   capacity. Sizes are rounded up to powers of two. *)
let create ~size_bytes ~line_bytes ~assoc =
  let line_bits = log2 line_bytes in
  let lines = max assoc (size_bytes / line_bytes) in
  let sets = max 1 (lines / assoc) in
  let set_bits = log2 sets in
  let chunk_bits = min set_bits max_chunk_bits in
  let stride = assoc + 1 in
  let blank = Array.make ((1 lsl chunk_bits) * stride) 0 in
  {
    line_bits;
    set_bits;
    assoc;
    stride;
    chunk_bits;
    dir = Array.make (1 lsl (set_bits - chunk_bits)) blank;
    blank;
    accesses = 0;
    misses = 0;
  }

(* Access one line; true = hit. The caller splits multi-line accesses. *)
let access_line t addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_bits in
  (* the set index is masked, so the unsafe_gets below stay in bounds *)
  let set_idx = line land ((1 lsl t.set_bits) - 1) in
  let tag = line lsr t.set_bits in
  let chunk = Array.unsafe_get t.dir (set_idx lsr t.chunk_bits) in
  let base = (set_idx land ((1 lsl t.chunk_bits) - 1)) * t.stride in
  let len = Array.unsafe_get chunk base in
  (* tight loops hit the MRU way most of the time; skip the scan+shuffle *)
  if len > 0 && Array.unsafe_get chunk (base + 1) = tag then true
  else
  let rec find i =
    if i >= len then -1
    else if Array.unsafe_get chunk (base + 1 + i) = tag then i
    else find (i + 1)
  in
  let pos = find 0 in
  if pos >= 0 then begin
    (* move to front (LRU update) *)
    for i = base + 1 + pos downto base + 2 do
      chunk.(i) <- chunk.(i - 1)
    done;
    chunk.(base + 1) <- tag;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let chunk =
      if chunk != t.blank then chunk
      else begin
        let fresh = Array.make (Array.length t.blank) 0 in
        t.dir.(set_idx lsr t.chunk_bits) <- fresh;
        fresh
      end
    in
    let new_len = Int.min t.assoc (len + 1) in
    for i = base + new_len downto base + 2 do
      chunk.(i) <- chunk.(i - 1)
    done;
    chunk.(base + 1) <- tag;
    chunk.(base) <- new_len;
    false
  end

(* Allocation-free variants for the interpreter hot path: the common case
   is a scalar access inside one line, which is a single [access_line]. *)
let lines_touched t addr size =
  let first = addr lsr t.line_bits in
  let last = (addr + Int.max 1 size - 1) lsr t.line_bits in
  last - first + 1

let access_misses t addr size =
  let first = addr lsr t.line_bits in
  let last = (addr + Int.max 1 size - 1) lsr t.line_bits in
  if first = last then if access_line t addr then 0 else 1
  else begin
    let misses = ref 0 in
    for line = first to last do
      if not (access_line t (line lsl t.line_bits)) then incr misses
    done;
    !misses
  end

(* Access [size] bytes at [addr]; returns the number of line misses and the
   number of lines touched. *)
let access t addr size =
  (access_misses t addr size, lines_touched t addr size)

let miss_ratio t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0
