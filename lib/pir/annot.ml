(* Function-level annotations (paper §6.2-§6.4).

   - [Entry]: analysis entry point (paper: extern functions by default, or
     the functions the developer listed).
   - [Within]: an external function also available inside every enclave
     (paper's mini-libc case: memcpy, malloc, ...). A call whose arguments
     carry a color C executes inside C; all arguments must be compatible
     with C.
   - [Ignore]: like [Within] but incompatible arguments are ignored rather
     than rejected; used to classify/declassify values (e.g. encrypt). *)

type t = Entry | Within | Ignore

let equal (a : t) (b : t) = a = b

let to_string = function
  | Entry -> "entry"
  | Within -> "within"
  | Ignore -> "ignore"
