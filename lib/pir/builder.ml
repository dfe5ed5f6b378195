type t = {
  pmodule : Pmodule.t;
  func : Func.t;
  mutable current : Block.t;
  mutable label_counter : int;
  mutable term_set : bool;
}

let create m f =
  let entry = Block.make "entry" in
  f.Func.blocks <- [ entry ];
  Pmodule.add_func m f;
  { pmodule = m; func = f; current = entry; label_counter = 0; term_set = false }

let block b hint =
  b.label_counter <- b.label_counter + 1;
  let label = Printf.sprintf "%s%d" hint b.label_counter in
  let blk = Block.make label in
  b.func.Func.blocks <- b.func.Func.blocks @ [ blk ];
  label

let position b label =
  b.current <- Func.find_block_exn b.func label;
  (* A freshly created block has the Unreachable placeholder terminator. *)
  b.term_set <-
    (match b.current.Block.term with Instr.Unreachable -> false | _ -> true)

let current_label b = b.current.Block.label

let instr ?loc b ty op =
  let id = Func.fresh_reg b.func in
  Block.append b.current (Instr.make ?loc ~id ~ty op);
  Value.reg id

(* Void instructions also consume an id so that analyses can key
   per-instruction facts on [Instr.id]; [Instr.defines] still reports them
   as defining nothing. *)
let effect ?loc b op =
  let id = Func.fresh_reg b.func in
  Block.append b.current (Instr.make ?loc ~id ~ty:Ty.void op)

let term b t =
  if not b.term_set then begin
    b.current.Block.term <- t;
    b.term_set <- true
  end

let terminated b = b.term_set

let alloca ?loc b ty = instr ?loc b (Ty.ptr ty) (Instr.Alloca ty)
let load ?loc b ty p = instr ?loc b ty (Instr.Load p)
let store ?loc b v p = effect ?loc b (Instr.Store (v, p))
let binop ?loc b op ty a b' = instr ?loc b ty (Instr.Binop (op, a, b'))
let icmp ?loc b op a b' = instr ?loc b Ty.i1 (Instr.Icmp (op, a, b'))

let call ?loc b ty f args =
  if Ty.equal ty Ty.void then begin
    effect ?loc b (Instr.Call (f, args));
    Value.Undef Ty.void
  end
  else instr ?loc b ty (Instr.Call (f, args))

let gep ?loc b ~ty ~pointee base steps =
  instr ?loc b ty (Instr.Gep (pointee, base, steps))

let phi ?loc b ty entries = instr ?loc b ty (Instr.Phi entries)
let br b label = term b (Instr.Br label)
let condbr b c t f = term b (Instr.Condbr (c, t, f))
let ret b v = term b (Instr.Ret v)
