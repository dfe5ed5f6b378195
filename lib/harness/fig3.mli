(** The Figure 3 motivation experiment: the sequential data-flow baseline
    vs the interleaving oracle vs the secure type system on the racy
    pointer-swap program. *)

type outcome = {
  tainted : string list;        (** what the data-flow tool protects *)
  leak_found : bool;            (** some schedule leaks the secret into b *)
  leaking_offsets : float list;
  secure_typing_rejects : bool;
  rejection : string option;
}

val run : unit -> outcome
val report : outcome -> Report.t
