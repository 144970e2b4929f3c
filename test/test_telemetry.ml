(* Tests for the telemetry layer: span nesting and ordering, counter
   aggregation, Chrome trace-event JSON well-formedness (parsed back with
   a minimal JSON reader), determinism of everything except timestamps,
   the interpreter hot-function profile, and a golden stats snapshot on
   the small corpus. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader (no external dependency)                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let lit word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code = int_of_string ("0x" ^ hex) in
           if code < 128 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Jobj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Jobj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Jarr [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Jarr (elements [])
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> lit "true" (Jbool true)
    | Some 'f' -> lit "false" (Jbool false)
    | Some 'n' -> lit "null" Jnull
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Jobj kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON member %s" key)
  | _ -> Alcotest.failf "not a JSON object (looking for %s)" key

let as_arr = function Jarr l -> l | _ -> Alcotest.fail "not a JSON array"
let as_str = function Jstr s -> s | _ -> Alcotest.fail "not a JSON string"
let as_num = function Jnum f -> f | _ -> Alcotest.fail "not a JSON number"

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic sink: fresh state, fake clock advancing 1us per read. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Telemetry.install_tick_clock ()

let teardown () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  Telemetry.use_wall_clock ()

let with_fresh f =
  fresh ();
  Fun.protect ~finally:teardown f

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_fresh @@ fun () ->
  Telemetry.with_span "outer" (fun () ->
      Telemetry.with_span "inner" (fun () -> ()));
  match Telemetry.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Telemetry.ev_name;
    Alcotest.(check string) "inner second" "inner" inner.Telemetry.ev_name;
    Alcotest.(check int) "outer depth" 0 outer.Telemetry.ev_depth;
    Alcotest.(check int) "inner depth" 1 inner.Telemetry.ev_depth;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Telemetry.ev_start_us > outer.Telemetry.ev_start_us);
    Alcotest.(check bool) "inner contained in outer" true
      (inner.Telemetry.ev_start_us +. inner.Telemetry.ev_dur_us
       <= outer.Telemetry.ev_start_us +. outer.Telemetry.ev_dur_us)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_ordering_sequential () =
  with_fresh @@ fun () ->
  List.iter (fun name -> Telemetry.with_span name (fun () -> ())) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "events in start order" [ "a"; "b"; "c" ]
    (List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ()))

let test_explicit_span_attrs () =
  with_fresh @@ fun () ->
  let sp = Telemetry.start_span ~cat:"test" ~attrs:[ ("k0", "v0") ] "explicit" in
  Telemetry.add_attr sp "k1" "v1";
  Telemetry.end_span sp ~attrs:[ ("k2", "v2") ];
  (* a second end is a no-op *)
  Telemetry.end_span sp;
  match Telemetry.events () with
  | [ e ] ->
    Alcotest.(check string) "cat" "test" e.Telemetry.ev_cat;
    Alcotest.(check (list (pair string string)))
      "attrs in order"
      [ ("k0", "v0"); ("k1", "v1"); ("k2", "v2") ]
      e.Telemetry.ev_attrs
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_survives_exception () =
  with_fresh @@ fun () ->
  (try Telemetry.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Telemetry.events ()))

let test_disabled_is_noop () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  Telemetry.with_span "ghost" (fun () -> Telemetry.incr "ghost.counter");
  Alcotest.(check int) "no events" 0 (List.length (Telemetry.events ()));
  Alcotest.(check int) "no counters" 0 (List.length (Telemetry.counters ()))

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                  *)
(* ------------------------------------------------------------------ *)

let test_counter_aggregation () =
  with_fresh @@ fun () ->
  Telemetry.incr "b.hits";
  Telemetry.incr "b.hits";
  Telemetry.incr ~by:3 "b.hits";
  Telemetry.add "a.total" 10;
  Alcotest.(check int) "incr + by aggregate" 5 (Telemetry.counter "b.hits");
  Alcotest.(check int) "absent counter is 0" 0 (Telemetry.counter "nope");
  Alcotest.(check (list (pair string int)))
    "sorted by name"
    [ ("a.total", 10); ("b.hits", 5) ]
    (Telemetry.counters ())

let test_top_counters () =
  with_fresh @@ fun () ->
  Telemetry.add "interp.fn.hot" 100;
  Telemetry.add "interp.fn.warm" 50;
  Telemetry.add "interp.fn.cold" 1;
  Telemetry.add "other" 999;
  Alcotest.(check (list (pair string int)))
    "prefix stripped, largest first, top 2"
    [ ("hot", 100); ("warm", 50) ]
    (Telemetry.top_counters ~prefix:"interp.fn." 2)

let test_gauges () =
  with_fresh @@ fun () ->
  Telemetry.set_gauge "g" 1.5;
  Telemetry.set_gauge "g" 0.5;
  Telemetry.max_gauge "m" 2.0;
  Telemetry.max_gauge "m" 1.0;
  Telemetry.max_gauge "m" 7.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "set overwrites, max keeps maximum"
    [ ("g", 0.5); ("m", 7.0) ]
    (Telemetry.gauges ())

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                  *)
(* ------------------------------------------------------------------ *)

let synthetic_workload () =
  Telemetry.with_span ~cat:"phase" "corpus" (fun () -> Telemetry.incr "corpus.files");
  Telemetry.with_span ~cat:"phase" "parse"
    ~attrs:[ ("files", "2"); ("weird\"name\n", "tab\there") ]
    (fun () ->
      Telemetry.with_span ~cat:"phase" "parse.scan" (fun () -> ());
      Telemetry.add "parse.ast_nodes" 42);
  Telemetry.set_gauge "files_per_s" 12.5

let test_chrome_trace_well_formed () =
  with_fresh @@ fun () ->
  synthetic_workload ();
  let j = parse_json (Telemetry.chrome_trace ()) in
  let evs = as_arr (member "traceEvents" j) in
  Alcotest.(check int) "three spans exported" 3 (List.length evs);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X" (as_str (member "ph" e));
      Alcotest.(check bool) "ts >= 0" true (as_num (member "ts" e) >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (as_num (member "dur" e) >= 0.0);
      ignore (as_str (member "name" e));
      ignore (as_str (member "cat" e)))
    evs;
  (* first event is rebased to ts = 0 *)
  (match evs with
   | first :: _ -> Alcotest.(check (float 1e-9)) "rebased" 0.0 (as_num (member "ts" first))
   | [] -> ());
  (* attrs with JSON metacharacters survive the escape/parse round trip *)
  let parse_ev =
    List.find (fun e -> as_str (member "name" e) = "parse") evs
  in
  Alcotest.(check string) "escaped attr key round-trips" "tab\there"
    (as_str (member "weird\"name\n" (member "args" parse_ev)));
  (* counters and gauges ride along *)
  let counters = member "counters" (member "otherData" j) in
  Alcotest.(check (float 1e-9)) "counter exported" 42.0
    (as_num (member "parse.ast_nodes" counters));
  let gauges = member "gauges" (member "otherData" j) in
  Alcotest.(check (float 1e-9)) "gauge exported" 12.5
    (as_num (member "files_per_s" gauges))

let test_determinism_modulo_clock () =
  let snapshot () =
    fresh ();
    synthetic_workload ();
    let trace = Telemetry.chrome_trace () in
    let counters = Telemetry.counters () in
    teardown ();
    (trace, counters)
  in
  let t1, c1 = snapshot () in
  let t2, c2 = snapshot () in
  Alcotest.(check string) "identical traces under the tick clock" t1 t2;
  Alcotest.(check (list (pair string int))) "identical counters" c1 c2

(* ------------------------------------------------------------------ *)
(* Interpreter profiling hook                                           *)
(* ------------------------------------------------------------------ *)

let test_interp_hot_function_profile () =
  with_fresh @@ fun () ->
  let src =
    "int helper(int x) { int acc = 0; for (int i = 0; i < x; i++) { acc += i; } \
     return acc; }\n\
     int main() { int total = 0; for (int k = 0; k < 5; k++) { total += \
     helper(10); } return total; }\n"
  in
  let tu = Cfront.Parser.parse_file ~file:"profile.cc" src in
  let hooks = Coverage.Runtime.telemetry_hooks () in
  (match fst (Fixture.run_coverage ~hooks [ tu ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "coverage run failed: %s" e);
  Alcotest.(check bool) "statements counted" true (Telemetry.counter "interp.stmts" > 0);
  Alcotest.(check bool) "calls counted" true (Telemetry.counter "interp.calls" >= 6);
  let helper = Telemetry.counter "interp.fn.helper" in
  let main_ = Telemetry.counter "interp.fn.main" in
  Alcotest.(check bool) "helper profiled" true (helper > 0);
  Alcotest.(check bool) "main profiled" true (main_ > 0);
  Alcotest.(check bool) "helper is the hot function" true (helper > main_);
  match Telemetry.top_counters ~prefix:"interp.fn." 1 with
  | [ (name, _) ] -> Alcotest.(check string) "top of profile" "helper" name
  | l -> Alcotest.failf "expected 1 top counter, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* GC phases                                                            *)
(* ------------------------------------------------------------------ *)

(* A phase's minor words include the words still in the minor heap when
   it ends: a 10,000-cell list is 30,000 words (three per cons) that no
   minor collection need have counted yet. *)
let test_gc_phase_minor_words () =
  with_fresh @@ fun () ->
  let cells = Sys.opaque_identity 10_000 in
  let l = Telemetry.gc_phase "build" (fun () -> List.init cells Fun.id) in
  ignore (Sys.opaque_identity l);
  let j = Benchdiff.Json.parse (Telemetry.metrics_json ~runtime:true ()) in
  let member k = function
    | Some o -> Benchdiff.Json.member k o
    | None -> None
  in
  match member "minor_words" (member "build" (member "gc" (member "runtime" (Some j)))) with
  | Some (Benchdiff.Json.Num w) ->
    Alcotest.(check bool) (Printf.sprintf "%.0f minor words >= 30000" w) true (w >= 30_000.)
  | _ -> Alcotest.fail "no runtime.gc.build.minor_words in the metrics record"

(* ------------------------------------------------------------------ *)
(* Golden stats on the small corpus                                     *)
(* ------------------------------------------------------------------ *)

let find_table title tables =
  match
    List.find_opt (fun (t : Util.Table.t) -> t.Util.Table.title = title) tables
  with
  | Some t -> t
  | None -> Alcotest.failf "missing stats table %s" title

let row_value (t : Util.Table.t) key =
  match
    List.find_opt (fun row -> match row with k :: _ -> k = key | [] -> false)
      t.Util.Table.rows
  with
  | Some [ _; v ] -> v
  | Some _ | None -> Alcotest.failf "missing stats row %s" key

let test_stats_golden_small_corpus () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  (* This golden pins the *sequential* span structure (per-rule spans are
     deliberately suppressed on pool workers), so force the oracle path
     regardless of ADCHECK_JOBS; test_parallel_determinism covers the
     parallel side. *)
  let saved_jobs = Util.Pool.default_jobs () in
  let teardown () = Util.Pool.set_default_jobs saved_jobs; teardown () in
  Fun.protect ~finally:teardown @@ fun () ->
  Util.Pool.set_default_jobs 1;
  let audit = Iso26262.Audit.run ~specs:Corpus.Apollo_profile.small () in
  ignore audit;
  (* the pipeline phases all appear as spans *)
  let span_names =
    List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ())
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true
        (List.mem phase span_names))
    [ "audit"; "corpus"; "parse"; "metrics"; "misra"; "dataflow"; "coverage" ];
  (* golden counter values: fully determined by seed 2019 + small scale *)
  let tables = Telemetry.stats_tables () in
  let counters = find_table "telemetry: counters" tables in
  Alcotest.(check string) "corpus.modules" "9" (row_value counters "corpus.modules");
  Alcotest.(check string) "parse.files" "16" (row_value counters "parse.files");
  Alcotest.(check string) "misra.rules_checked" "68"
    (row_value counters "misra.rules_checked");
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " nonzero") true
        (int_of_string (row_value counters key) > 0))
    [ "corpus.bytes"; "parse.ast_nodes"; "misra.violations"; "dataflow.solves";
      "dataflow.transfers"; "interp.stmts"; "interp.calls" ];
  (* the hot-function profile exists and is part of the stats rendering *)
  let hot = find_table "telemetry: hot functions (statements interpreted)" tables in
  Alcotest.(check bool) "hot functions listed" true
    (List.length hot.Util.Table.rows > 0);
  (* spans table aggregates the per-rule MISRA spans *)
  let spans = find_table "telemetry: spans" tables in
  Alcotest.(check bool) "some misra.rule.* span aggregated" true
    (List.exists
       (fun row ->
         match row with
         | name :: _ ->
           String.length name > 11 && String.sub name 0 11 = "misra.rule."
         | [] -> false)
       spans.Util.Table.rows)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting depths and ordering" `Quick test_span_nesting;
          Alcotest.test_case "sequential ordering" `Quick test_span_ordering_sequential;
          Alcotest.test_case "explicit span with attrs" `Quick test_explicit_span_attrs;
          Alcotest.test_case "span recorded on exception" `Quick
            test_span_survives_exception;
          Alcotest.test_case "disabled sink records nothing" `Quick
            test_disabled_is_noop;
        ] );
      ( "counters",
        [
          Alcotest.test_case "aggregation" `Quick test_counter_aggregation;
          Alcotest.test_case "top by prefix" `Quick test_top_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace is well-formed JSON" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "deterministic modulo clock" `Quick
            test_determinism_modulo_clock;
        ] );
      ( "gc",
        [
          Alcotest.test_case "phase counts minor-heap words" `Quick
            test_gc_phase_minor_words;
        ] );
      ( "interp",
        [
          Alcotest.test_case "hot-function profile" `Quick
            test_interp_hot_function_profile;
        ] );
      ( "golden",
        [
          Alcotest.test_case "stats on the small corpus" `Slow
            test_stats_golden_small_corpus;
        ] );
    ]
