(** One entry point regenerating every table and figure of the paper's
    evaluation (the per-experiment index lives in DESIGN.md §4). *)

(** Run the named experiments (fig3, table4, fig8, fig9, fig10 and
    ablation when [names] is empty) and print their reports; [quick]
    uses scaled-down sizes for CI. *)
val run : ?quick:bool -> ?names:string list -> unit -> unit
