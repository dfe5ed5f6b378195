(* See the .mli: a behavioural model of authenticated encryption, built
   on splitmix64. One PRF word covers 8 keystream bytes; the tag chains
   the same mixer over (key, nonce, ciphertext). Everything is pure
   int64 arithmetic — no allocation beyond the output string. *)

type key = { k0 : int64; k1 : int64; color : string }

let golden = 0x9e3779b97f4a7c15L

(* splitmix64 finalizer: the repo's stock statistical mixer *)
let mix z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* FNV-style absorb + mix, for key derivation and the tag *)
let absorb h byte =
  mix (Int64.add (Int64.mul h 0x100000001b3L) (Int64.of_int byte))

let hash_string seed s =
  let h = ref seed in
  String.iter (fun c -> h := absorb !h (Char.code c)) s;
  !h

let derive ~cluster color =
  (* a NUL separator keeps ("ab","c") and ("a","bc") apart *)
  let h = hash_string 0xcbf29ce484222325L (cluster ^ "\000" ^ color) in
  { k0 = mix h; k1 = mix (Int64.add h golden); color }

let overhead = 8

(* Keystream word [j] of (key, nonce): one mixed word yields bytes
   8j..8j+7. The nonce is folded in multiplied by the golden ratio so
   consecutive nonces diverge immediately. *)
let ks_word key ~nonce j =
  mix
    (Int64.logxor key.k1
       (mix
          (Int64.add key.k0
             (Int64.add
                (Int64.mul (Int64.of_int nonce) golden)
                (Int64.of_int j)))))

let ks_byte key ~nonce i =
  let w = ks_word key ~nonce (i / 8) in
  Int64.to_int (Int64.shift_right_logical w (8 * (i mod 8))) land 0xff

let tag key ~nonce ct =
  let h = ref (Int64.logxor key.k0 (mix (Int64.of_int nonce))) in
  String.iter (fun c -> h := absorb !h (Char.code c)) ct;
  mix (Int64.logxor !h key.k1)

let put_le64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let get_le64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let xor_stream key ~nonce s =
  String.init (String.length s) (fun i ->
      Char.chr (Char.code s.[i] lxor ks_byte key ~nonce i))

let seal ~key ~nonce p =
  let ct = xor_stream key ~nonce p in
  let out = Bytes.create (String.length ct + overhead) in
  Bytes.blit_string ct 0 out 0 (String.length ct);
  put_le64 out (String.length ct) (tag key ~nonce ct);
  Bytes.unsafe_to_string out

let unseal ~key ~nonce data =
  let n = String.length data in
  if n < overhead then Error "sealed payload shorter than the tag"
  else begin
    let ct = String.sub data 0 (n - overhead) in
    let want = tag key ~nonce ct in
    let got = get_le64 data (n - overhead) in
    if not (Int64.equal want got) then
      Error
        (Printf.sprintf "authentication failed for color %s, nonce %d"
           key.color nonce)
    else Ok (xor_stream key ~nonce ct)
  end

(* AES-NI-class schedule setup plus ~2 cycles/byte streaming and a
   GHASH-like tag pass at 1 cycle/byte, rounded to whole 16-byte blocks.
   On the Cost scale (cycles), comparable to one queue_msg per ~500 B. *)
let cost_cycles n =
  let blocks = float_of_int ((n + 15) / 16) in
  40.0 +. (blocks *. 16.0 *. 3.0)
