(** The full dynamic-scenario set of the coverage experiments.  See
    scenario_set.mli. *)

type set = {
  tus : Cfront.Ast.tu list;
  measured : string list;
  scenarios : Coverage.Scenario.t list;
}

(* Probes grouped into fixed-size batches: each batch is one scenario
   (one env load amortized over several probes), and the batch size is a
   constant — never derived from the jobs value — so the scenario list
   is identical at every worker count. *)
let probe_batch_size = 8

let batches_of size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n + 1 >= size then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let full () =
  Telemetry.with_span ~cat:"coverage" "coverage.scenario_set" @@ fun () ->
  (* One parse of the YOLO sources, shared by every scenario so that
     programs over the same units compile once.  Ids depend only on path
     and content, so hit sets would merge onto the same keys from
     separate parses too. *)
  let yolo_tus = Yolo_src.parse_all () in
  let measured = List.map fst Yolo_src.measured_files in
  (* One scenario per real-scenario test, in the driver's call order.
     Each test function is self-contained, so splitting the monolithic
     [main] driver into independent scenarios changes nothing about the
     measured coverage (test_corpus.ml holds a golden comparison against
     the monolithic run) while flattening the parallel critical path:
     the five tests spread across workers instead of serializing inside
     one scenario. *)
  let reals =
    List.map
      (fun fn ->
        let short =
          let prefix = "scenario_" in
          let n = String.length prefix in
          let s =
            if String.length fn > n && String.sub fn 0 n = prefix then
              String.sub fn n (String.length fn - n)
            else fn
          in
          String.map (fun c -> if c = '_' then '-' else c) s
        in
        {
          Coverage.Scenario.sc_name = "yolo-real-" ^ short;
          sc_tus = yolo_tus;
          sc_entries = [ fn ];
        })
      Yolo_src.scenario_entries
  in
  let faults = Fault_src.to_scenarios ~yolo_tus in
  (* Gap probes need a baseline run to plan against; the baseline is a
     prefix of the set construction, not a member of the set — the real-
     scenario members replay it so the merged coverage still includes
     it.  Plans depend only on the (deterministic) baseline hit sets,
     which the per-test split leaves unchanged on the measured files. *)
  let baseline =
    let program = Coverage.Compile.compile yolo_tus in
    Coverage.Scenario.merged_collector
      (List.map (fun sc -> Coverage.Scenario.run_one ~program sc) reals)
  in
  let plans = Coverage.Testgen.plan_for_gaps baseline yolo_tus ~measured in
  let driver, entries = Coverage.Testgen.driver_of_plans plans in
  let gap_tu = Cfront.Parser.parse_file ~file:"testgen/gap_driver.c" driver in
  let probes =
    List.mapi
      (fun i batch ->
        {
          Coverage.Scenario.sc_name = Printf.sprintf "testgen-probes-%d" i;
          sc_tus = yolo_tus @ [ gap_tu ];
          sc_entries = batch;
        })
      (batches_of probe_batch_size entries)
  in
  Telemetry.incr
    ~by:(List.length reals + List.length faults + List.length probes)
    "coverage.scenario_set.size";
  { tus = yolo_tus; measured; scenarios = reals @ faults @ probes }
