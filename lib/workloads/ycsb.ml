(* YCSB workload generation (Cooper et al., SoCC'10 [15]): key-choosing
   distributions (zipfian with the standard 0.99 constant, scrambled
   zipfian, uniform, latest) and the standard workload mixes. Fully
   deterministic given the seed (splitmix64). *)

(* --- splitmix64 PRNG --- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next_int64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform float in [0, 1) *)
let next_float r =
  let bits = Int64.shift_right_logical (next_int64 r) 11 in
  Int64.to_float bits /. 9007199254740992.0

(* uniform int in [0, n) *)
let next_int r n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next_int64 r) Int64.max_int) (Int64.of_int n))

(* --- zipfian --- *)

let zipfian_constant = 0.99

type zipfian = {
  items : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2 : float;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. (float_of_int i ** theta))
  done;
  !sum

let zipfian ?(theta = zipfian_constant) items =
  let zetan = zeta items theta in
  let zeta2 = zeta 2 theta in
  {
    items;
    theta;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. ((2.0 /. float_of_int items) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan));
    zeta2;
  }

(* Next zipfian-distributed item in [0, items). Item 0 is the hottest. *)
let zipfian_next z r =
  let u = next_float r in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** z.theta) then 1
  else
    let v =
      float_of_int z.items *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)
    in
    min (z.items - 1) (int_of_float v)

(* FNV-style scrambling so hot keys spread over the key space, as YCSB's
   ScrambledZipfianGenerator does. *)
let fnv_hash64 v =
  let prime = 0x100000001B3L in
  let basis = 0xCBF29CE484222325L in
  let h = ref basis in
  let v = ref v in
  for _ = 0 to 7 do
    let octet = Int64.logand !v 0xffL in
    h := Int64.mul (Int64.logxor !h octet) prime;
    v := Int64.shift_right_logical !v 8
  done;
  !h

let scrambled_zipfian_next z r =
  let raw = zipfian_next z r in
  Int64.to_int
    (Int64.rem
       (Int64.logand (fnv_hash64 (Int64.of_int raw)) Int64.max_int)
       (Int64.of_int z.items))

(* --- workloads --- *)

type distribution = Uniform | Zipfian | Latest

type op =
  | Read of int
  | Update of int
  | Insert of int
  | Scan of int * int (* start key, requested length (YCSB-E) *)
  | Rmw of int (* read-modify-write on one key (YCSB-F) *)

type spec = {
  record_count : int;
  operation_count : int;
  read_proportion : float;
  update_proportion : float;
  insert_proportion : float;
  scan_proportion : float;
  rmw_proportion : float;
  max_scan_len : int; (* scan lengths are uniform in [1, max_scan_len] *)
  distribution : distribution;
  value_size : int;
  seed : int;
}

(* The standard mixes from the YCSB paper. *)
let workload_a ?(seed = 42) ~record_count ~operation_count ~value_size () =
  {
    record_count;
    operation_count;
    read_proportion = 0.5;
    update_proportion = 0.5;
    insert_proportion = 0.0;
    scan_proportion = 0.0;
    rmw_proportion = 0.0;
    max_scan_len = 1;
    distribution = Zipfian;
    value_size;
    seed;
  }

let workload_b ?(seed = 42) ~record_count ~operation_count ~value_size () =
  {
    record_count;
    operation_count;
    read_proportion = 0.95;
    update_proportion = 0.05;
    insert_proportion = 0.0;
    scan_proportion = 0.0;
    rmw_proportion = 0.0;
    max_scan_len = 1;
    distribution = Zipfian;
    value_size;
    seed;
  }

(* Workload E: short range scans (95%) + inserts (5%), zipfian start
   keys. Workload F: reads (50%) + read-modify-writes (50%). *)
let workload_e ?(seed = 42) ?(max_scan_len = 16) ~record_count
    ~operation_count ~value_size () =
  {
    record_count;
    operation_count;
    read_proportion = 0.0;
    update_proportion = 0.0;
    insert_proportion = 0.05;
    scan_proportion = 0.95;
    rmw_proportion = 0.0;
    max_scan_len;
    distribution = Zipfian;
    value_size;
    seed;
  }

let workload_f ?(seed = 42) ~record_count ~operation_count ~value_size () =
  {
    record_count;
    operation_count;
    read_proportion = 0.5;
    update_proportion = 0.0;
    insert_proportion = 0.0;
    scan_proportion = 0.0;
    rmw_proportion = 0.5;
    max_scan_len = 1;
    distribution = Zipfian;
    value_size;
    seed;
  }

type t = {
  spec : spec;
  r : rng;
  z : zipfian option;
  mutable inserted : int;      (* for Latest / Insert *)
}

let create spec =
  {
    spec;
    r = rng spec.seed;
    z =
      (match spec.distribution with
      | Zipfian | Latest -> Some (zipfian spec.record_count)
      | Uniform -> None);
    inserted = spec.record_count;
  }

let next_key t =
  match t.spec.distribution with
  | Uniform -> next_int t.r t.inserted
  | Zipfian -> (
    match t.z with
    | Some z -> scrambled_zipfian_next z t.r
    | None -> next_int t.r t.inserted)
  | Latest -> (
    match t.z with
    | Some z -> max 0 (t.inserted - 1 - zipfian_next z t.r)
    | None -> next_int t.r t.inserted)

let next_op t : op =
  let u = next_float t.r in
  let read = t.spec.read_proportion in
  let update = read +. t.spec.update_proportion in
  let scan = update +. t.spec.scan_proportion in
  let rmw = scan +. t.spec.rmw_proportion in
  if u < read then Read (next_key t)
  else if u < update then Update (next_key t)
  else if u < scan then
    Scan (next_key t, 1 + next_int t.r (max 1 t.spec.max_scan_len))
  else if u < rmw then Rmw (next_key t)
  else begin
    let k = t.inserted in
    t.inserted <- t.inserted + 1;
    Insert k
  end

(* Deterministic pseudo-random value payload for key [k]. *)
let value_for ~size k =
  let b = Bytes.create size in
  let r = rng (k * 7919) in
  for i = 0 to size - 1 do
    Bytes.set b i (Char.chr (Int64.to_int (Int64.logand (next_int64 r) 0x7fL)))
  done;
  Bytes.to_string b
