(** SSA promotion of allocas — the LLVM [mem2reg] pass the paper runs before
    color inference (§5.1).

    A local is promoted only when its address never escapes (the exact
    condition under which the paper infers local colors: a non-escaping
    local cannot be touched by another thread) and when it carries no
    explicit color (a colored local is a declared memory location and must
    stay materialized for placement).

    Standard algorithm: phi insertion at the iterated dominance frontier of
    the store sites, then a renaming walk of the dominator tree. *)

(** Returns the number of promoted allocas. *)
val run : Privagic_pir.Pmodule.t -> int
