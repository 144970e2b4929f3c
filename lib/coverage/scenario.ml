(** Scenario-parallel coverage execution.  See scenario.mli.

    Each scenario owns a fresh {!Runtime.env} and {!Collector}, so
    scenarios are independent tasks: {!run_all} fans them out over
    [Util.Pool] via [Telemetry.parallel_map] (order-preserving, counters
    merged deterministically) and the caller merges the per-scenario
    collectors with {!Collector.merge_into} — per-key count sums and
    MC/DC vector-set unions, both commutative and associative, so merged
    coverage equals the jobs=1 sequential run byte for byte. *)

type t = {
  sc_name : string;
  sc_tus : Cfront.Ast.tu list;
  sc_entries : string list;
}

type outcome = {
  o_name : string;
  o_collector : Collector.t;
  o_results : (string * (Value.t, string) result) list;
  o_output : string;
  o_steps : int;
}

let run_one ?program sc =
  Telemetry.with_span ~cat:"coverage" "coverage.scenario"
    ~attrs:[ ("scenario", sc.sc_name);
             ("entries", string_of_int (List.length sc.sc_entries)) ]
  @@ fun () ->
  Telemetry.incr "coverage.scenarios";
  let collector = Collector.create ~origin:sc.sc_name () in
  let env =
    Runtime.create
      ~hooks:(Runtime.telemetry_hooks ~base:(Collector.hooks collector) ())
      ()
  in
  let results =
    (* timed region innermost (inside the span) so the tick count is the
       same at every --jobs value; execution makes no clock reads *)
    Telemetry.timed ("coverage.scenario_us." ^ sc.sc_name) @@ fun () ->
    match sc.sc_entries with
    | [] -> []
    | entries ->
      (* compile once per shared parse (the caller may hand in a compiled
         program), load once, run every entry against it *)
      let prog =
        match program with Some p -> p | None -> Compile.compile sc.sc_tus
      in
      Exec.run_entries env prog ~entries
  in
  Telemetry.observe "coverage.scenario_stmts"
    (float_of_int
       (Hashtbl.fold (fun _ n acc -> acc + n) collector.Collector.stmt_hits 0));
  {
    o_name = sc.sc_name;
    o_collector = collector;
    o_results = results;
    o_output = Runtime.output env;
    o_steps = env.Runtime.steps;
  }

(* chunk_size 1: scenarios are coarse units of work (each replays a whole
   program run), so one task per scenario keeps the pool balanced.
   Findings a scenario records on a worker come back with its outcome
   and are journaled in scenario order. *)
let run_all scenarios =
  (* One group per distinct parse, compiled in first-seen order.
     Scenarios built over the same shared parse (possibly through
     different list spines) are grouped by per-element physical
     equality of the tu list.  Each group's program is compiled
     sequentially up front (compilation is pure and jobs-independent)
     and shared read-only by the worker domains. *)
  let same_tus a b = List.compare_lengths a b = 0 && List.for_all2 ( == ) a b in
  let groups =
    List.fold_left
      (fun acc sc ->
        if List.exists (fun (tus, _) -> same_tus tus sc.sc_tus) acc then acc
        else (sc.sc_tus, Compile.compile sc.sc_tus) :: acc)
      [] scenarios
  in
  let program_of sc = snd (List.find (fun (tus, _) -> same_tus tus sc.sc_tus) groups) in
  List.map
    (fun (outcome, findings) ->
      List.iter Provenance.record findings;
      outcome)
    (Telemetry.parallel_map ~chunk_size:1
       (fun sc -> Provenance.collect (fun () -> run_one ~program:(program_of sc) sc))
       scenarios)

let merged_collector outcomes =
  Collector.merge (List.map (fun o -> o.o_collector) outcomes)

let score collector ~measured tus =
  List.filter_map
    (fun (tu : Cfront.Ast.tu) ->
      if List.mem tu.Cfront.Ast.tu_file measured then
        Some
          (Collector.score_file collector ~file:tu.Cfront.Ast.tu_file
             (Instrument.of_tu tu))
      else None)
    tus

let failures outcomes =
  List.concat_map
    (fun o ->
      List.filter_map
        (fun (entry, r) ->
          match r with
          | Ok _ -> None
          | Error e -> Some (o.o_name, entry, e))
        o.o_results)
    outcomes
