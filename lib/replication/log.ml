(* The commit log, encoded compactly outside the OCaml heap.

   Entries are appended back to back into 1 MiB Bigarray chunks:

     Del: 0xff, key
     Put: color id (0..254), key, payload length, payload

   with the key (zigzag-mapped, so a negative key stays short) and the
   length as LEB128 varints. An index of 1 MiB Bigarray chunks maps
   [seq - 1] to the entry's offset inside its data chunk, an int32, and
   [starts] holds the first entry of each data chunk (an entry never
   straddles two chunks). A 32-byte put with a key below 8192 therefore
   keeps 4 + 32 + 4 bytes resident, and nothing per delta lives on the
   OCaml heap, so the collector neither scans the log nor sizes its
   headroom by it. Colors are interned: a store has one value color per
   enclave. [get] decodes a fresh [Delta.t] on every call.

   Readers are woken, not polled: [subscribe] registers a callback that
   every append runs under the log mutex, after the new entries are
   visible. A shard loop that hosts replication links writes its
   self-pipe from that callback only while it is asleep, and appends
   with no subscriber run no callback at all. *)

module A1 = Bigarray.Array1

type data_chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type index_chunk = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

let chunk_bits = 20                    (* 1 MiB of entry bytes per chunk *)
let chunk_size = 1 lsl chunk_bits
let index_bits = 18                    (* 2^18 offsets: 1 MiB per chunk *)
let del_tag = 0xff

type t = {
  mu : Mutex.t;
  mutable data : data_chunk array;
  mutable starts : int array;          (* first entry of each data chunk *)
  mutable fill : int;                  (* bytes used in the last data chunk *)
  mutable index : index_chunk array;
  mutable len : int;
  mutable colors : string array;       (* color id -> color *)
  mutable subs : (int * (unit -> unit)) list;
  mutable next_sub : int;
}

let create () =
  {
    mu = Mutex.create ();
    data = [||];
    starts = [||];
    fill = chunk_size;
    index = [||];
    len = 0;
    colors = [||];
    subs = [];
    next_sub = 0;
  }

let color_id t color =
  let n = Array.length t.colors in
  let rec find i =
    if i = n then begin
      if n = del_tag then invalid_arg "Log: more than 255 value colors";
      t.colors <- Array.append t.colors [| color |];
      n
    end
    else if String.equal t.colors.(i) color then i
    else find (i + 1)
  in
  find 0

let put_u8 c pos v = A1.unsafe_set c pos (Char.unsafe_chr (v land 0xff))

(* Varints read [v] as unsigned, so every int round-trips. *)
let rec varint_size v = if v lsr 7 = 0 then 1 else 1 + varint_size (v lsr 7)

let rec put_varint c pos v =
  if v lsr 7 = 0 then begin
    put_u8 c pos v;
    pos + 1
  end
  else begin
    put_u8 c pos (v lor 0x80);
    put_varint c (pos + 1) (v lsr 7)
  end

let get_varint c pos =
  let rec go pos shift acc =
    let b = Char.code (A1.unsafe_get c pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let zigzag k = (k lsl 1) lxor (k asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor -(v land 1)

(* Mutex held. Encodes [op] as entry [t.len + 1]. *)
let push t op =
  let tag, key, payload =
    match op with
    | Delta.Del { key } -> (del_tag, zigzag key, None)
    | Delta.Put { key; color; payload } -> (color_id t color, zigzag key, Some payload)
  in
  let size =
    1 + varint_size key
    + Option.fold ~none:0 ~some:(fun p -> varint_size (String.length p) + String.length p) payload
  in
  if t.fill + size > chunk_size then begin
    let c = A1.create Bigarray.char Bigarray.c_layout (max chunk_size size) in
    t.data <- Array.append t.data [| c |];
    t.starts <- Array.append t.starts [| t.len |];
    t.fill <- 0
  end;
  let c = t.data.(Array.length t.data - 1) and pos = t.fill in
  put_u8 c pos tag;
  let at = put_varint c (pos + 1) key in
  Option.iter
    (fun p ->
      let at = put_varint c at (String.length p) in
      String.iteri (fun i ch -> A1.unsafe_set c (at + i) ch) p)
    payload;
  let slot = t.len land ((1 lsl index_bits) - 1) in
  if slot = 0 then
    t.index <-
      Array.append t.index
        [| A1.create Bigarray.int32 Bigarray.c_layout (1 lsl index_bits) |];
  A1.unsafe_set t.index.(t.len lsr index_bits) slot (Int32.of_int pos);
  t.fill <- pos + size;
  t.len <- t.len + 1

(* Mutex held. The data chunk of entry [i]: the last one starting at or
   before it. *)
let chunk_of t i =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.starts.(mid) <= i then go mid hi else go lo mid
  in
  t.data.(go 0 (Array.length t.starts))

(* Mutex held. *)
let decode t seq =
  let i = seq - 1 in
  let c = chunk_of t i in
  let pos = Int32.to_int (A1.unsafe_get t.index.(i lsr index_bits) (i land ((1 lsl index_bits) - 1))) in
  let tag = Char.code (A1.unsafe_get c pos) in
  let key, at = get_varint c (pos + 1) in
  let key = unzigzag key in
  let op =
    if tag = del_tag then Delta.Del { key }
    else
      let n, at = get_varint c at in
      Delta.Put
        { key; color = t.colors.(tag); payload = String.init n (fun j -> A1.unsafe_get c (at + j)) }
  in
  Delta.{ seq; op }

(* Mutex held; [f] runs before the release so every subscriber sees the
   appended entries and an unsubscribe never races a running callback. *)
let appended t =
  match t.subs with [] -> () | subs -> List.iter (fun (_, f) -> f ()) subs

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | r ->
    Mutex.unlock t.mu;
    r
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let append t op =
  locked t (fun () ->
      push t op;
      appended t;
      t.len)

let append_batch t ops =
  locked t (fun () ->
      List.iter (push t) ops;
      if ops <> [] then appended t;
      t.len)

let append_at t ~seq op =
  locked t (fun () ->
      if seq <> t.len + 1 then
        invalid_arg
          (Printf.sprintf "Log.append_at: seq %d does not extend head %d" seq
             t.len);
      push t op;
      appended t)

let head t = locked t (fun () -> t.len)

let get t seq =
  locked t (fun () ->
      if seq >= 1 && seq <= t.len then Some (decode t seq) else None)

let to_list t = locked t (fun () -> List.init t.len (fun i -> decode t (i + 1)))

let subscribe t f =
  let id =
    locked t (fun () ->
        let id = t.next_sub in
        t.next_sub <- id + 1;
        t.subs <- (id, f) :: t.subs;
        id)
  in
  fun () ->
    locked t (fun () -> t.subs <- List.filter (fun (i, _) -> i <> id) t.subs)
