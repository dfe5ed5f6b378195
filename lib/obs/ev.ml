(* The event vocabulary: what the code column of a ring means, and what
   its arg column carries for each kind.

   Codes [0 .. Phase.count-1] are a lane's phase entries (the code is
   the Phase.index); every other kind has one fixed code. A message tag
   is part of the code, so a send or receive needs no name lookup. *)

type tag = Spawn | Retval | Token | Done

type t =
  | Phase of Phase.t
  | Extern  (* arg: the extern's syscall weight *)
  | Chunk_begin  (* arg: interned chunk name *)
  | Chunk_end
  | Req_begin  (* arg: interned request name *)
  | Req_end
  | Send of tag  (* arg: flow id, shared with the matching receive *)
  | Recv of tag
  | Barrier
  | Fiber_spawn  (* arg: the spawning track, -1 from outside the ring *)
  | Fiber_start
  | Fiber_block
  | Fiber_resume  (* arg: the wakeup's arrival, as a ring timestamp *)
  | Fiber_finish
  | Ecall
  | Ocall  (* a syscall issued from inside an enclave *)
  | Switchless
  | Queue_msg
  | Syscall
  | Epc_fault  (* arg: faulting pages *)
  | Thread_spawn

let tag_name = function
  | Spawn -> "spawn"
  | Retval -> "retval"
  | Token -> "token"
  | Done -> "done"

let tag_index = function Spawn -> 0 | Retval -> 1 | Token -> 2 | Done -> 3

let code = function
  | Phase p -> Phase.index p
  | Extern -> 16
  | Chunk_begin -> 17
  | Chunk_end -> 18
  | Req_begin -> 19
  | Req_end -> 20
  | Send g -> 21 + tag_index g
  | Recv g -> 25 + tag_index g
  | Barrier -> 29
  | Fiber_spawn -> 30
  | Fiber_start -> 31
  | Fiber_block -> 32
  | Fiber_resume -> 33
  | Fiber_finish -> 34
  | Ecall -> 35
  | Ocall -> 36
  | Switchless -> 37
  | Queue_msg -> 38
  | Syscall -> 39
  | Epc_fault -> 40
  | Thread_spawn -> 41

(* Every non-phase kind with its name, in code order from 16. *)
let points =
  let msg dir mk =
    List.map (fun g -> (mk g, dir ^ tag_name g)) [ Spawn; Retval; Token; Done ]
  in
  Array.of_list
    ([ (Extern, "extern"); (Chunk_begin, "chunk-begin");
       (Chunk_end, "chunk-end"); (Req_begin, "req-begin");
       (Req_end, "req-end") ]
    @ msg "send:" (fun g -> Send g)
    @ msg "recv:" (fun g -> Recv g)
    @ [ (Barrier, "barrier"); (Fiber_spawn, "fiber-spawn");
        (Fiber_start, "fiber-start"); (Fiber_block, "block");
        (Fiber_resume, "resume"); (Fiber_finish, "fiber-finish");
        (Ecall, "ecall"); (Ocall, "ocall"); (Switchless, "switchless");
        (Queue_msg, "queue-msg"); (Syscall, "syscall");
        (Epc_fault, "epc-fault"); (Thread_spawn, "thread-spawn") ])

let of_code c =
  if c >= 0 && c < Phase.count then Phase (Phase.of_index c)
  else fst points.(c - 16)

let name = function
  | Phase p -> "phase:" ^ Phase.name p
  | k -> snd points.(code k - 16)
