(* The alcotest runner, with one extra flag alcotest does not know:

     dune exec test/main.exe -- [alcotest args] --seed N

   [--seed N] re-bases every seeded random harness (the image-engine
   differential corpus, the robust-safety fuzz smoke and the shard-core
   simulation) on N — the
   flag a failing run prints in its one-line reproducer. The default
   base (1) keeps the pinned corpora. *)

let () =
  let argv = Array.to_list Sys.argv in
  let rec split acc = function
    | "--seed" :: n :: rest -> (List.rev acc @ rest, Some n)
    | a :: rest -> split (a :: acc) rest
    | [] -> (List.rev acc, None)
  in
  let argv, seed = split [] argv in
  (match seed with
  | Some n -> (
    match int_of_string_opt n with
    | Some n ->
      Test_image.base_seed := n;
      Test_robust.base_seed := n;
      Test_sim.base_seed := n
    | None ->
      prerr_endline ("main: --seed expects an integer, got '" ^ n ^ "'");
      exit 2)
  | None -> ());
  Alcotest.run ~argv:(Array.of_list argv) "privagic"
    [
      ("color", Test_color.suite);
      ("ty", Test_ty.suite);
      ("frontend", Test_frontend.suite);
      ("ir", Test_ir.suite);
      ("infer", Test_infer.suite);
      ("infer2", Test_infer2.suite);
      ("exec", Test_exec.suite);
      ("exec2", Test_exec2.suite);
      ("runtime", Test_runtime.suite);
      ("sgx", Test_sgx.suite);
      ("partition", Test_partition.suite);
      ("pinterp", Test_pinterp.suite);
      ("parallel", Test_parallel.suite);
      ("dataflow", Test_dataflow.suite);
      ("programs", Test_programs.suite);
      ("workloads", Test_workloads.suite);
      ("harness", Test_harness.suite);
      ("extensions", Test_extensions.suite);
      ("equivalence", Test_equiv.suite);
      ("image", Test_image.suite);
      ("server", Test_server.suite);
      ("txn", Test_txn.suite);
      ("replication", Test_replication.suite);
      ("wire_fuzz", Test_wire_fuzz.suite);
      ("robust", Test_robust.suite);
      ("obs", Test_obs.suite);
      ("sim", Test_sim.suite);
    ]
