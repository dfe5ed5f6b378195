(** Implementations of the external functions the mini-C programs declare:
    the paper's mini-libc ([within] helpers available inside every
    enclave: malloc, memcpy, string functions, classify/declassify) and
    the OS interface (network, locks, printing — syscalls whose cost
    depends on the CPU zone). *)

(** How many OS interactions an external performs (0 = not a syscall).
    [net_recv] models memcached's event-loop read side (epoll + reads),
    [net_send] the response path, locks are futexes. *)
val syscall_weight : string -> int

val is_syscall : string -> bool

(** Execute external [name]; [None] when unknown (the driver traps).
    [malloc_zone] is where allocation externals place memory — the enclave
    executing the within-call, per §6.3. *)
val dispatch :
  Exec.t -> malloc_zone:Heap.zone -> string -> Rvalue.t array ->
  Rvalue.t option
