(** The flattened linked program image and its index-resolved engine.

    {!build} lowers a checked plan (or a plain module) once into an
    immutable image: functions as dense arrays of flat blocks, branch
    targets and phi predecessors as integer indices, operand symbols /
    load-store element types / gep scales / barrier candidacy precomputed
    into side arrays, global addresses frozen to constants. {!install}
    then points an executor's [run_func] at the image engine — a tight
    loop with no per-step allocation or string hashing. Functions absent
    from the image fall back to the tree-walker, which stays available as
    the differential oracle ([--engine=walk]).

    String-literal interning and function-pointer materialization stay
    lazy on purpose: they allocate rodata on first touch and the cache
    model is address-sensitive, so resolving them at link time would
    shift every virtual-time latency relative to the walk oracle. *)

open Privagic_pir
open Privagic_partition

type t

(** Lower every module function — plus, when [plan] is given, every chunk
    function with its barrier-candidate flags — against executor [ex].
    Call after [Exec.init_globals] so global addresses freeze into the
    image. [sites] reuses an existing allocation-site table instead of
    recomputing one. *)
val build :
  ?plan:Plan.t -> ?sites:(string * int, Ty.t) Hashtbl.t -> Exec.t -> t

(** §7.2 allocation-site analysis, hoisted to link time. *)
val sites : t -> (string * int, Ty.t) Hashtbl.t

(** Point [ex.run_func] at the image engine. The executor (and any
    [Exec.clone_shared] made afterwards) then runs image code for every
    function in the image and walks the rest. *)
val install : Exec.t -> t -> unit

(** Whether this (physical) function was lowered into the image. *)
val covers : t -> Func.t -> bool

(** One lowered function body. *)
type code

(** The lowered body of this (physical) function, if the image has one.
    The partitioned runtime resolves each chunk's code once, at
    [Dispatch.create], instead of looking it up per call. *)
val find_code : t -> Func.t -> code option

(** Run a lowered body on executor [ex] — what {!install}'s [run_func]
    does once it has found the code. *)
val run_code : Exec.t -> code -> Rvalue.t array -> Rvalue.t
