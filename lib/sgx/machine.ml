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

module Tel = Privagic_telemetry

type t = {
  config : Config.t;
  cost : Cost.t;
  l1 : Cache.t;
  llc : Cache.t;
  epc : Cache.t;                (* page-granular enclave working set *)
  c : counters;
  mutable trace : (int * int -> unit) option;
      (* per-machine access trace for debugging cache behaviour; a field
         (not a global) so two machines in one harness run cannot clobber
         each other's hooks *)
  mutable tel : Tel.Recorder.t;
      (* transition/fault events; timestamps and tracks come from the
         recorder's context, maintained by the VM *)
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
    trace = None;
    tel = Tel.Recorder.null;
  }

let set_trace m f = m.trace <- f

let set_telemetry m r = m.tel <- r

(* Cost of executing [n] plain instructions. *)
let instr_cost m n =
  m.c.instrs <- m.c.instrs + n;
  float_of_int n *. m.cost.Cost.cycles_per_instr

(* Cost of a [size]-byte access at [addr]: [cpu] is the mode the processor
   runs in (misses taken in enclave mode pay the Eleos multiplier), [data]
   is where the memory lives (enclave pages occupy EPC and may fault).
   The hierarchy is L1 -> LLC -> DRAM. *)
let mem_cost m ~cpu ~data addr size =
  (match m.trace with Some f -> f (addr, size) | None -> ());
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
      if Tel.Recorder.enabled m.tel then
        Tel.Recorder.here m.tel ~arg:faults Tel.Event.Epc_fault;
      cost +. (m.cost.Cost.epc_fault *. float_of_int faults)
    end
    else cost
  end
  else cost

let ecall_cost m =
  m.c.ecalls <- m.c.ecalls + 1;
  if Tel.Recorder.enabled m.tel then Tel.Recorder.here m.tel Tel.Event.Ecall;
  m.cost.Cost.ecall

let switchless_cost m =
  m.c.switchless_calls <- m.c.switchless_calls + 1;
  if Tel.Recorder.enabled m.tel then
    Tel.Recorder.here m.tel Tel.Event.Switchless;
  m.cost.Cost.switchless_lock

let queue_msg_cost m =
  m.c.queue_msgs <- m.c.queue_msgs + 1;
  if Tel.Recorder.enabled m.tel then
    Tel.Recorder.here m.tel Tel.Event.Queue_msg;
  m.cost.Cost.queue_msg

let syscall_cost m ~zone =
  match zone with
  | Normal ->
    m.c.syscalls <- m.c.syscalls + 1;
    if Tel.Recorder.enabled m.tel then
      Tel.Recorder.here m.tel Tel.Event.Syscall;
    m.cost.Cost.syscall
  | Enclave _ ->
    m.c.enclave_syscalls <- m.c.enclave_syscalls + 1;
    if Tel.Recorder.enabled m.tel then
      Tel.Recorder.here m.tel Tel.Event.Ocall;
    m.cost.Cost.enclave_syscall

let thread_spawn_cost m =
  m.c.threads_spawned <- m.c.threads_spawned + 1;
  if Tel.Recorder.enabled m.tel then
    Tel.Recorder.here m.tel Tel.Event.Thread_spawn;
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
