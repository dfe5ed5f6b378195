(* The simulated machine: cache hierarchy, EPC working set, cost and event
   counters. The VM charges every simulated memory access and every control
   event (transition, message, syscall) here and gets back a cycle count to
   add to the current worker's virtual clock. *)

type zone = Normal | Enclave of string

type counters = {
  mutable instrs : int;
  mutable mem_accesses : int;
  mutable l1_misses : int;
  mutable llc_misses : int;
  mutable enclave_llc_misses : int;
  mutable epc_faults : int;
  mutable ecalls : int;
  mutable switchless_calls : int;
  mutable queue_msgs : int;
  mutable syscalls : int;
  mutable enclave_syscalls : int;
  mutable threads_spawned : int;
}

let fresh_counters () =
  {
    instrs = 0;
    mem_accesses = 0;
    l1_misses = 0;
    llc_misses = 0;
    enclave_llc_misses = 0;
    epc_faults = 0;
    ecalls = 0;
    switchless_calls = 0;
    queue_msgs = 0;
    syscalls = 0;
    enclave_syscalls = 0;
    threads_spawned = 0;
  }

module Ring = Privagic_obs.Ring
module Ev = Privagic_obs.Ev

(* A VM's ring while it is traced: the machine knows neither the clock
   nor the worker, so the VM keeps [track] on the running worker and
   [now] reads that worker's clock as a ring timestamp. *)
type tap = { ring : Ring.t; mutable track : int; now : unit -> int }

type t = {
  config : Config.t;
  cost : Cost.t;
  l1 : Cache.t;
  llc : Cache.t;
  epc : Cache.t;                (* page-granular enclave working set *)
  c : counters;
  mutable tap : tap option; (* transition/fault events *)
}

let create ?(cost = Cost.default) (config : Config.t) =
  {
    config;
    cost;
    l1 =
      Cache.create ~size_bytes:(config.l1_kib * 1024)
        ~line_bytes:config.line_bytes ~assoc:config.l1_assoc;
    llc =
      Cache.create ~size_bytes:(config.llc_kib * 1024)
        ~line_bytes:config.line_bytes ~assoc:config.llc_assoc;
    epc =
      Cache.create ~size_bytes:(config.epc_mib * 1024 * 1024) ~line_bytes:4096
        ~assoc:16;
    c = fresh_counters ();
    tap = None;
  }

let set_tap m tap = m.tap <- Some tap

let note m kind ~arg =
  match m.tap with
  | None -> ()
  | Some tp ->
    Ring.record tp.ring ~track:tp.track ~code:(Ev.code kind) ~arg
      ~ts:(tp.now ())

(* Cost of executing [n] plain instructions. *)
let instr_cost m n =
  m.c.instrs <- m.c.instrs + n;
  float_of_int n *. m.cost.Cost.cycles_per_instr

(* Cost of a [size]-byte access at [addr]: [cpu] is the mode the processor
   runs in (misses taken in enclave mode pay the Eleos multiplier), [data]
   is where the memory lives (enclave pages occupy EPC and may fault).
   The hierarchy is L1 -> LLC -> DRAM. *)
let mem_cost m ~cpu ~data addr size =
  m.c.mem_accesses <- m.c.mem_accesses + 1;
  let l1_misses = Cache.access_misses m.l1 addr size in
  let lines = Cache.lines_touched m.l1 addr size in
  let in_enclave = match cpu with Enclave _ -> true | Normal -> false in
  let data_in_enclave = match data with Enclave _ -> true | Normal -> false in
  (* accumulated through plain lets — a [float ref] would box every
     intermediate, and this runs once per simulated memory access *)
  let cost = m.cost.Cost.l1_hit *. float_of_int lines in
  let cost =
    if l1_misses > 0 then begin
      m.c.l1_misses <- m.c.l1_misses + l1_misses;
      let llc_misses = Cache.access_misses m.llc addr size in
      let llc_hits = l1_misses - llc_misses in
      let cost =
        cost +. (m.cost.Cost.llc_hit *. float_of_int (Int.max 0 llc_hits))
      in
      if llc_misses > 0 then begin
        m.c.llc_misses <- m.c.llc_misses + llc_misses;
        let miss_cost =
          if in_enclave then begin
            m.c.enclave_llc_misses <- m.c.enclave_llc_misses + llc_misses;
            m.cost.Cost.llc_miss *. m.cost.Cost.enclave_miss_factor
          end
          else m.cost.Cost.llc_miss
        in
        cost +. (miss_cost *. float_of_int llc_misses)
      end
      else cost
    end
    else cost
  in
  (* EPC pressure: only enclave-zone memory occupies EPC pages. *)
  if data_in_enclave then begin
    let faults = Cache.access_misses m.epc addr size in
    if faults > 0 then begin
      m.c.epc_faults <- m.c.epc_faults + faults;
      note m Ev.Epc_fault ~arg:faults;
      cost +. (m.cost.Cost.epc_fault *. float_of_int faults)
    end
    else cost
  end
  else cost

let ecall_cost m =
  m.c.ecalls <- m.c.ecalls + 1;
  note m Ev.Ecall ~arg:0;
  m.cost.Cost.ecall

let switchless_cost m =
  m.c.switchless_calls <- m.c.switchless_calls + 1;
  note m Ev.Switchless ~arg:0;
  m.cost.Cost.switchless_lock

let queue_msg_cost m =
  m.c.queue_msgs <- m.c.queue_msgs + 1;
  note m Ev.Queue_msg ~arg:0;
  m.cost.Cost.queue_msg

let syscall_cost m ~zone =
  match zone with
  | Normal ->
    m.c.syscalls <- m.c.syscalls + 1;
    note m Ev.Syscall ~arg:0;
    m.cost.Cost.syscall
  | Enclave _ ->
    m.c.enclave_syscalls <- m.c.enclave_syscalls + 1;
    note m Ev.Ocall ~arg:0;
    m.cost.Cost.enclave_syscall

let thread_spawn_cost m =
  m.c.threads_spawned <- m.c.threads_spawned + 1;
  note m Ev.Thread_spawn ~arg:0;
  m.cost.Cost.thread_spawn

let counters m = m.c

let llc_miss_ratio m = Cache.miss_ratio m.llc

(* Convert cycles to seconds on this machine. *)
let seconds m cycles = cycles /. (m.config.Config.freq_ghz *. 1e9)

let reset_stats m =
  Cache.reset_stats m.l1;
  Cache.reset_stats m.llc;
  Cache.reset_stats m.epc;
  let c = m.c in
  c.instrs <- 0;
  c.mem_accesses <- 0;
  c.l1_misses <- 0;
  c.llc_misses <- 0;
  c.enclave_llc_misses <- 0;
  c.epc_faults <- 0;
  c.ecalls <- 0;
  c.switchless_calls <- 0;
  c.queue_msgs <- 0;
  c.syscalls <- 0;
  c.enclave_syscalls <- 0;
  c.threads_spawned <- 0
