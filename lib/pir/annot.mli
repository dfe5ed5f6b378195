(** Function-level annotations (paper §6.2–§6.4). *)

type t =
  | Entry
      (** analysis entry point: callable from the untrusted world; its
          arguments take the mode's entry color *)
  | Within
      (** an external function also linked inside every enclave (the
          paper's mini-libc: malloc, memcpy, ...): a call with a colored
          argument executes inside that enclave, and every argument —
          including pointees — must be compatible with it *)
  | Ignore
      (** like [Within] but incompatible arguments are ignored rather than
          rejected: the classify/declassify escape hatch of §6.4 *)

val equal : t -> t -> bool
val to_string : t -> string
