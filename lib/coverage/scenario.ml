(** Scenario-parallel coverage execution.  See scenario.mli.

    Each scenario owns a fresh {!Interp.env} and {!Collector}, so
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

type engine = Tree | Bytecode

let engine_name = function Tree -> "tree" | Bytecode -> "bytecode"

let run_one ?(engine = Bytecode) ?program sc =
  Telemetry.with_span ~cat:"coverage" "coverage.scenario"
    ~attrs:[ ("scenario", sc.sc_name);
             ("entries", string_of_int (List.length sc.sc_entries)) ]
  @@ fun () ->
  Telemetry.incr "coverage.scenarios";
  let collector = Collector.create ~origin:sc.sc_name () in
  let env =
    Interp.create
      ~hooks:(Interp.telemetry_hooks ~base:(Collector.hooks collector) ())
      ()
  in
  let results =
    (* timed region innermost (inside the span) so the tick count is the
       same at every --jobs value; interpretation makes no clock reads *)
    Telemetry.timed ("coverage.scenario_us." ^ sc.sc_name) @@ fun () ->
    match (engine, sc.sc_entries) with
    | _, [] -> []
    | Tree, first :: rest ->
      (* the first entry loads the units; the rest reuse the environment.
         The head is bound BEFORE the cons: [::] evaluates its right
         operand first, so the inline form ran the remaining entries
         against an unloaded environment ("entry function not found")
         — a latent bug the bytecode differential harness caught. *)
      let head = (first, Interp.run env sc.sc_tus ~entry:first ~args:[]) in
      head :: Interp.run_entries env ~entries:rest
    | Bytecode, entries ->
      (* compile once per shared parse (the caller may hand in a cached
         program), load once, run every entry against it *)
      let prog =
        match program with Some p -> p | None -> Compile.compile sc.sc_tus
      in
      Exec.load env prog;
      Exec.run_entries env prog ~entries
  in
  Telemetry.observe "coverage.scenario_stmts"
    (float_of_int
       (Hashtbl.fold (fun _ n acc -> acc + n) collector.Collector.stmt_hits 0));
  {
    o_name = sc.sc_name;
    o_collector = collector;
    o_results = results;
    o_output = Interp.output env;
    o_steps = env.Interp.steps;
  }

(* One compiled program per distinct parse in the scenario list.  Keyed
   by per-element physical equality of the tu list: scenarios built over
   the same shared parse (possibly through different list spines) reuse
   one immutable program, which worker domains then share read-only. *)
let compile_cache scenarios =
  let same_tus a b =
    List.compare_lengths a b = 0 && List.for_all2 ( == ) a b
  in
  let cache =
    List.fold_left
      (fun acc sc ->
        if List.exists (fun (tus, _) -> same_tus tus sc.sc_tus) acc then acc
        else (sc.sc_tus, Compile.compile sc.sc_tus) :: acc)
      [] scenarios
  in
  fun sc ->
    Option.map snd (List.find_opt (fun (tus, _) -> same_tus tus sc.sc_tus) cache)

(* chunk_size 1: scenarios are coarse units of work (each replays a whole
   interpreter run), so one task per scenario keeps the pool balanced.
   Findings a scenario records on a worker come back with its outcome
   and are absorbed in scenario order. *)
let run_all ?(engine = Bytecode) scenarios =
  (* programs are compiled sequentially up front (compilation is pure
     and jobs-independent), then shared across the pool *)
  let program_for =
    match engine with Tree -> fun _ -> None | Bytecode -> compile_cache scenarios
  in
  (* With the artifact cache enabled, whole outcomes are memoized.  The
     key hashes the marshaled tu list — which embeds every eid/sid the
     collector will key on, each a function of its unit's path and
     content — plus engine, name and entries, so a cached outcome can
     only hit when replaying it is byte-identical to re-running
     (fingerprints included).  Hashed once per distinct parse,
     mirroring [compile_cache]'s physical-equality grouping.  The stored
     value carries the findings the run recorded (coverage runs journal
     through scoring, not here, but the capture keeps the journal exact
     if that ever changes). *)
  let outcome_key =
    match Cache.global () with
    | None -> fun _ -> None
    | Some _ ->
      let same_tus a b =
        List.compare_lengths a b = 0 && List.for_all2 ( == ) a b
      in
      let hashes =
        List.fold_left
          (fun acc sc ->
            if List.exists (fun (tus, _) -> same_tus tus sc.sc_tus) acc then acc
            else
              (sc.sc_tus, Cache.fnv1a64 (Marshal.to_string sc.sc_tus [])) :: acc)
          [] scenarios
      in
      fun sc ->
        Option.map
          (fun (_, h) ->
            Cache.key ~kind:"scenario"
              [ h; engine_name engine; sc.sc_name;
                String.concat "\x00" sc.sc_entries ])
          (List.find_opt (fun (tus, _) -> same_tus tus sc.sc_tus) hashes)
  in
  List.map
    (fun (outcome, findings) ->
      Provenance.absorb findings;
      outcome)
    (Telemetry.parallel_map ~chunk_size:1
       (fun sc ->
         let cold () =
           Provenance.collect (fun () -> run_one ~engine ?program:(program_for sc) sc)
         in
         match (Cache.global (), outcome_key sc) with
         | Some c, Some key ->
           Cache.memo c ~kind:"scenario" ~key cold
         | _ -> cold ())
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
