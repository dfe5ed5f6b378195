(* The commit log, encoded compactly outside the OCaml heap.

   Entries are appended back to back into 1 MiB Bigarray chunks:

     Del: 0, key (8 bytes LE)
     Put: 1, key (8 bytes LE), color id (1), payload length (4 LE), payload

   and an index of 1 MiB Bigarray chunks maps [seq - 1] to the entry's
   global byte offset ([chunk lsl chunk_bits + offset]; an entry never
   straddles two chunks). A 32-byte put therefore keeps 14 + 32 + 8 bytes
   resident, and nothing per delta lives on the OCaml heap, so the
   collector neither scans the log nor sizes its headroom by it. Colors are
   interned: a store has one value color per enclave. [get] decodes a
   fresh [Delta.t] on every call.

   Readers are woken, not polled: [subscribe] registers a callback that
   every append runs under the log mutex, after the new entries are
   visible. The shipper's callback writes its thread's wake pipe only
   while that thread is asleep, and appends with no subscriber run no
   callback at all. *)

module A1 = Bigarray.Array1

type data_chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type index_chunk = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let chunk_bits = 20                    (* 1 MiB of entry bytes per chunk *)
let chunk_size = 1 lsl chunk_bits
let index_bits = 17                    (* 2^17 offsets: 1 MiB per chunk *)

type t = {
  mu : Mutex.t;
  mutable data : data_chunk array;
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
      if n = 256 then invalid_arg "Log: more than 256 value colors";
      t.colors <- Array.append t.colors [| color |];
      n
    end
    else if String.equal t.colors.(i) color then i
    else find (i + 1)
  in
  find 0

let put_u8 c pos v = A1.unsafe_set c pos (Char.unsafe_chr (v land 0xff))

let put_le c pos nbytes v =
  for i = 0 to nbytes - 1 do
    put_u8 c (pos + i) (v lsr (8 * i))
  done

let get_le c pos nbytes =
  let v = ref 0 in
  for i = nbytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (A1.unsafe_get c (pos + i))
  done;
  !v

(* Mutex held. Encodes [op] as entry [t.len + 1]. *)
let push t op =
  let size =
    match op with
    | Delta.Del _ -> 9
    | Delta.Put { payload; _ } -> 14 + String.length payload
  in
  if t.fill + size > chunk_size then begin
    let c = A1.create Bigarray.char Bigarray.c_layout (max chunk_size size) in
    t.data <- Array.append t.data [| c |];
    t.fill <- 0
  end;
  let ci = Array.length t.data - 1 in
  let c = t.data.(ci) and pos = t.fill in
  (match op with
  | Delta.Del { key } ->
    put_u8 c pos 0;
    put_le c (pos + 1) 8 key
  | Delta.Put { key; color; payload } ->
    put_u8 c pos 1;
    put_le c (pos + 1) 8 key;
    put_u8 c (pos + 9) (color_id t color);
    put_le c (pos + 10) 4 (String.length payload);
    String.iteri (fun i ch -> A1.unsafe_set c (pos + 14 + i) ch) payload);
  let slot = t.len land ((1 lsl index_bits) - 1) in
  if slot = 0 then
    t.index <-
      Array.append t.index
        [| A1.create Bigarray.int Bigarray.c_layout (1 lsl index_bits) |];
  A1.unsafe_set t.index.(t.len lsr index_bits) slot ((ci lsl chunk_bits) lor pos);
  t.fill <- pos + size;
  t.len <- t.len + 1

(* Mutex held. *)
let decode t seq =
  let i = seq - 1 in
  let off = A1.unsafe_get t.index.(i lsr index_bits) (i land ((1 lsl index_bits) - 1)) in
  let c = t.data.(off lsr chunk_bits) and pos = off land (chunk_size - 1) in
  let key = get_le c (pos + 1) 8 in
  let op =
    if A1.unsafe_get c pos = '\000' then Delta.Del { key }
    else
      let n = get_le c (pos + 10) 4 in
      Delta.Put
        {
          key;
          color = t.colors.(Char.code (A1.unsafe_get c (pos + 9)));
          payload = String.init n (fun j -> A1.unsafe_get c (pos + 14 + j));
        }
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
