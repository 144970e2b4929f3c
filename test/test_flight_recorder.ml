(* Flight-recorder test suite: histogram algebra (unit + QCheck merge
   properties), exporter JSON well-formedness under hostile strings,
   the adcheck-metrics/1 cross-jobs differential (counters AND
   histogram bucket contents byte-identical at jobs 1/2/8 under the
   tick clock), pool telemetry accounting, and the bench-diff gate
   policy (self-compare clean, injected regressions caught). *)

module H = Util.Histogram

(* ------------------------------------------------------------------ *)
(* Histogram unit tests                                                *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "zeros" 0 (H.zeros h);
  Alcotest.(check (float 0.0)) "sum" 0.0 (H.sum h);
  Alcotest.(check (float 0.0)) "min" 0.0 (H.min_value h);
  Alcotest.(check (float 0.0)) "max" 0.0 (H.max_value h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (H.p50 h);
  Alcotest.(check (list (pair int int))) "buckets" [] (H.buckets h)

let test_hist_observe () =
  let h = H.create () in
  List.iter (H.observe h) [ 1.0; 2.0; 4.0; 0.0; -3.0 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check int) "zeros" 2 (H.zeros h);
  Alcotest.(check (float 1e-9)) "sum" 4.0 (H.sum h);
  Alcotest.(check (float 0.0)) "min" (-3.0) (H.min_value h);
  Alcotest.(check (float 0.0)) "max" 4.0 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 0.8 (H.mean h)

let test_hist_bucket_bounds () =
  (* every positive sample lands in a bucket whose [lo, hi) range
     contains it, and consecutive buckets tile the line *)
  List.iter
    (fun v ->
      let h = H.create () in
      H.observe h v;
      match H.buckets h with
      | [ (i, 1) ] ->
        let lo, hi = H.bucket_bounds i in
        if not (lo <= v && v < hi) then
          Alcotest.failf "%g not in bucket %d range [%g, %g)" v i lo hi
      | bs -> Alcotest.failf "%g: expected one bucket, got %d" v (List.length bs))
    [ 1e-6; 0.5; 1.0; 1.5; 2.0; 3.0; 1000.0; 1e9 ];
  List.iter
    (fun i ->
      let _, hi = H.bucket_bounds i in
      let lo', _ = H.bucket_bounds (i + 1) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "bucket %d hi = bucket %d lo" i (i + 1))
        hi lo')
    [ -8; -1; 0; 1; 7; 40 ]

let test_hist_quantile_clamped () =
  let h = H.create () in
  List.iter (H.observe h) [ 10.0; 10.0; 10.0 ];
  (* a single-value distribution: every quantile is that value, because
     estimates clamp to the observed extrema *)
  Alcotest.(check (float 0.0)) "p50" 10.0 (H.p50 h);
  Alcotest.(check (float 0.0)) "p99" 10.0 (H.p99 h)

let test_hist_quantile_zeros_first () =
  let h = H.create () in
  List.iter (H.observe h) [ 0.0; 0.0; 0.0; 100.0 ];
  (* 3 of 4 samples are zero: the median rank falls in the zero bucket,
     while p99 estimates within the bucket holding the tail sample *)
  Alcotest.(check (float 0.0)) "p50 is 0" 0.0 (H.p50 h);
  let lo, hi = H.bucket_bounds (fst (List.hd (H.buckets h))) in
  let p99 = H.p99 h in
  if not (lo <= p99 && p99 < hi) then
    Alcotest.failf "p99 %g outside tail bucket [%g, %g)" p99 lo hi

let test_hist_merge_identity () =
  let h = H.create () in
  List.iter (H.observe h) [ 1.0; 5.0; 0.0 ];
  let merged = H.merge [ h; H.create () ] in
  Alcotest.(check bool) "merge with empty = original" true (H.equal h merged);
  Alcotest.(check bool) "merge [] is empty" true
    (H.equal (H.create ()) (H.merge []))

let test_hist_copy_independent () =
  let h = H.create () in
  H.observe h 3.0;
  let c = H.copy h in
  H.observe h 7.0;
  Alcotest.(check int) "copy unaffected" 1 (H.count c);
  Alcotest.(check int) "original grew" 2 (H.count h)

(* ------------------------------------------------------------------ *)
(* QCheck merge properties                                             *)
(*                                                                     *)
(* Samples are integer-valued floats — the work-tier convention — so   *)
(* [sum] is exact under any association and [equal]+sum comparison is  *)
(* legitimate.                                                         *)
(* ------------------------------------------------------------------ *)

let sample_gen = QCheck.Gen.map float_of_int (QCheck.Gen.int_range (-10) 10_000)
let samples_arb = QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 200) sample_gen)

let of_samples xs =
  let h = H.create () in
  List.iter (H.observe h) xs;
  h

let hists_agree a b =
  H.equal a b && H.sum a = H.sum b

(* Splitting a sample list at any point and merging the two halves
   reproduces the sequential histogram — the per-domain buffering
   argument in one property. *)
let prop_merge_partition =
  QCheck.Test.make ~name:"merge is partition-invariant" ~count:300
    QCheck.(pair samples_arb small_nat)
    (fun (xs, k) ->
      let n = List.length xs in
      let cut = if n = 0 then 0 else k mod (n + 1) in
      let left = List.filteri (fun i _ -> i < cut) xs in
      let right = List.filteri (fun i _ -> i >= cut) xs in
      hists_agree (of_samples xs) (H.merge [ of_samples left; of_samples right ]))

let prop_merge_order =
  QCheck.Test.make ~name:"merge is order-invariant" ~count:300
    QCheck.(pair samples_arb samples_arb)
    (fun (xs, ys) ->
      hists_agree
        (H.merge [ of_samples xs; of_samples ys ])
        (H.merge [ of_samples ys; of_samples xs ]))

let prop_merge_empty_identity =
  QCheck.Test.make ~name:"empty is a merge identity" ~count:300 samples_arb
    (fun xs ->
      let h = of_samples xs in
      hists_agree h (H.merge [ H.create (); h; H.create () ]))

let prop_quantiles_monotone =
  QCheck.Test.make ~name:"p50 <= p90 <= p99 <= max" ~count:300 samples_arb
    (fun xs ->
      QCheck.assume (xs <> []);
      let h = of_samples xs in
      H.p50 h <= H.p90 h && H.p90 h <= H.p99 h && H.p99 h <= H.max_value h)

let prop_count_splits =
  QCheck.Test.make ~name:"count = zeros + bucket total" ~count:300 samples_arb
    (fun xs ->
      let h = of_samples xs in
      H.count h
      = H.zeros h + List.fold_left (fun acc (_, c) -> acc + c) 0 (H.buckets h))

(* ------------------------------------------------------------------ *)
(* Exporter JSON under hostile strings                                 *)
(* ------------------------------------------------------------------ *)

let hostile = "he said \"hi\"\\\n\ttab\x01 caf\xc3\xa9"

let parse_json what s =
  match Benchdiff.Json.parse s with
  | j -> j
  | exception Benchdiff.Json.Parse_error msg ->
    Alcotest.failf "%s is not valid JSON: %s" what msg

let with_fresh_sink f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false)

let test_chrome_trace_escaping () =
  with_fresh_sink @@ fun () ->
  Telemetry.with_span hostile (fun () -> Telemetry.incr hostile);
  Telemetry.set_gauge hostile 1.5;
  let j = parse_json "chrome_trace" (Telemetry.chrome_trace ()) in
  match Benchdiff.Json.member "traceEvents" j with
  | Some (Benchdiff.Json.Arr (ev :: _)) ->
    (match Benchdiff.Json.member "name" ev with
     | Some (Benchdiff.Json.Str s) ->
       Alcotest.(check string) "span name round-trips" hostile s
     | _ -> Alcotest.fail "event has no string name")
  | _ -> Alcotest.fail "no traceEvents array"

let test_metrics_escaping () =
  with_fresh_sink @@ fun () ->
  Telemetry.incr hostile;
  Telemetry.observe hostile 2.0;
  let j = parse_json "metrics_json" (Telemetry.metrics_json ()) in
  (match Benchdiff.Json.member "counters" j with
   | Some (Benchdiff.Json.Obj kvs) ->
     Alcotest.(check bool) "counter key round-trips" true
       (List.mem_assoc hostile kvs)
   | _ -> Alcotest.fail "no counters object");
  match Benchdiff.Json.member "histograms" j with
  | Some (Benchdiff.Json.Obj kvs) ->
    Alcotest.(check bool) "histogram key round-trips" true
      (List.mem_assoc hostile kvs)
  | _ -> Alcotest.fail "no histograms object"

let test_chrome_trace_sorted () =
  with_fresh_sink @@ fun () ->
  Telemetry.install_tick_clock ();
  Fun.protect ~finally:Telemetry.use_wall_clock @@ fun () ->
  (* two spans opening on the same rebased timestamp sort by name *)
  Telemetry.with_span "zeta" (fun () -> ());
  Telemetry.with_span "alpha" (fun () -> ());
  let j = parse_json "chrome_trace" (Telemetry.chrome_trace ()) in
  match Benchdiff.Json.member "traceEvents" j with
  | Some (Benchdiff.Json.Arr evs) ->
    let keys =
      List.map
        (fun ev ->
          match
            (Benchdiff.Json.member "ts" ev, Benchdiff.Json.member "name" ev)
          with
          | Some (Benchdiff.Json.Num ts), Some (Benchdiff.Json.Str n) -> (ts, n)
          | _ -> Alcotest.fail "event missing ts/name")
        evs
    in
    Alcotest.(check bool) "events sorted by (ts, name)" true
      (List.sort compare keys = keys)
  | _ -> Alcotest.fail "no traceEvents array"

(* Golden Chrome-trace export: a fixed nested workload under the tick
   clock must serialize to exactly these (ts, dur, name) complete
   events, in exactly this order.  The tick clock starts each domain's
   span stream at 0 and advances one microsecond per read, so an
   enclosing span's duration counts every clock read made inside it;
   any change to the export sort (ts, tid, name), to the timestamp
   rebasing, or to how spans nest shows up as a golden mismatch. *)
let test_chrome_trace_golden () =
  with_fresh_sink @@ fun () ->
  Telemetry.install_tick_clock ();
  Fun.protect ~finally:Telemetry.use_wall_clock @@ fun () ->
  Telemetry.with_span "outer" (fun () ->
      Telemetry.with_span "inner-a" (fun () -> ());
      Telemetry.with_span "inner-b" (fun () -> ()));
  Telemetry.with_span "tail" (fun () -> ());
  let j = parse_json "chrome_trace" (Telemetry.chrome_trace ()) in
  match Benchdiff.Json.member "traceEvents" j with
  | Some (Benchdiff.Json.Arr evs) ->
    let tuples =
      List.map
        (fun ev ->
          match
            ( Benchdiff.Json.member "ts" ev, Benchdiff.Json.member "dur" ev,
              Benchdiff.Json.member "name" ev, Benchdiff.Json.member "ph" ev )
          with
          | Some (Benchdiff.Json.Num ts), Some (Benchdiff.Json.Num dur),
            Some (Benchdiff.Json.Str n), Some (Benchdiff.Json.Str ph) ->
            Alcotest.(check string) "all events are complete events" "X" ph;
            (int_of_float ts, (int_of_float dur, n))
          | _ -> Alcotest.fail "event missing ts/dur/name/ph")
        evs
    in
    Alcotest.(check (list (pair int (pair int string))))
      "golden (ts, dur, name) sequence"
      [ (0, (5, "outer")); (1, (1, "inner-a")); (3, (1, "inner-b"));
        (6, (1, "tail")) ]
      tuples;
    (* the single-domain workload keeps every event on one tid *)
    (match evs with
     | first :: rest ->
       let tid ev =
         match Benchdiff.Json.member "tid" ev with
         | Some (Benchdiff.Json.Num t) -> t
         | _ -> Alcotest.fail "event missing tid"
       in
       List.iter
         (fun ev ->
           Alcotest.(check (float 0.0)) "same tid" (tid first) (tid ev))
         rest
     | [] -> Alcotest.fail "no events");
    (* nesting is stable: each inner span's [ts, ts+dur] interval sits
       inside outer's *)
    List.iter
      (fun (ts, (dur, name)) ->
        if name = "inner-a" || name = "inner-b" then
          Alcotest.(check bool)
            (Printf.sprintf "%s nests inside outer" name)
            true
            (ts >= 0 && ts + dur <= 5))
      tuples
  | _ -> Alcotest.fail "no traceEvents array"

(* ------------------------------------------------------------------ *)
(* Cross-jobs differential on the adcheck-metrics/1 record             *)
(* ------------------------------------------------------------------ *)

let restore_jobs = Util.Pool.default_jobs ()

(* The table1 pipeline under [jobs] workers with the tick clock: the
   work-tier metrics record must come out byte-identical, including
   every attributed-timing histogram's bucket contents. *)
let metrics_at ~jobs =
  Util.Pool.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Telemetry.install_tick_clock ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.use_wall_clock ();
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let project =
    Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small
  in
  let parsed = Cfront.Project.parse project in
  let (_ : Misra.Registry.report) = Misra.Registry.run_project parsed in
  let (_ : Dataflow.Analyses.func_summary list) =
    List.map Dataflow.Analyses.summary_of_facts
      (Dataflow.Analyses.facts_of_functions (Cfront.Project.all_functions parsed))
  in
  Telemetry.metrics_json ~runtime:false ()

let metrics_oracle = lazy (metrics_at ~jobs:1)

let check_metrics_identical ~jobs =
  let oracle = Lazy.force metrics_oracle in
  let par = metrics_at ~jobs in
  Alcotest.(check string)
    (Printf.sprintf "work-tier metrics JSON byte-identical at jobs=%d" jobs)
    oracle par;
  (* and the record is substantive: attributed timing histograms with
     non-empty buckets made it into the comparison *)
  let j = parse_json "metrics" par in
  match Benchdiff.Json.member "histograms" j with
  | Some (Benchdiff.Json.Obj kvs) ->
    Alcotest.(check bool) "per-rule timing histograms present" true
      (List.exists
         (fun (k, _) ->
           String.length k >= 14 && String.sub k 0 14 = "misra.rule_us.")
         kvs);
    Alcotest.(check bool) "value histograms present" true
      (List.mem_assoc "parse.file_ast_nodes" kvs)
  | _ -> Alcotest.fail "no histograms object"

let test_metrics_jobs2 () = check_metrics_identical ~jobs:2
let test_metrics_jobs8 () = check_metrics_identical ~jobs:8

let test_runtime_tier_partition () =
  Alcotest.(check bool) "pool. is runtime" true
    (Telemetry.is_runtime_metric "pool.submitted");
  Alcotest.(check bool) "gc. is runtime" true
    (Telemetry.is_runtime_metric "gc.parse");
  Alcotest.(check bool) "phase. is runtime" true
    (Telemetry.is_runtime_metric "phase.misra_us");
  Alcotest.(check bool) "misra.rule_us is work tier" false
    (Telemetry.is_runtime_metric "misra.rule_us.2.1")

(* ------------------------------------------------------------------ *)
(* Pool telemetry accounting                                           *)
(* ------------------------------------------------------------------ *)

let test_pool_stats_balanced () =
  Util.Pool.set_default_jobs 2;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  match Util.Pool.global () with
  | None -> Alcotest.fail "expected a pool at jobs=2"
  | Some pool ->
    let futs =
      List.init 50 (fun i -> Util.Pool.submit pool (fun () -> i * i))
    in
    let (_ : int list) = Util.Pool.await_all futs in
    let st =
      match Util.Pool.global_stats () with
      | Some st -> st
      | None -> Alcotest.fail "global_stats lost the live pool"
    in
    Alcotest.(check int) "submitted counts every task" 50 st.Util.Pool.st_submitted;
    Alcotest.(check int) "completed = submitted after await_all" 50
      st.Util.Pool.st_completed;
    Alcotest.(check int) "task_run has one sample per task" 50
      (H.count st.Util.Pool.st_task_run);
    Alcotest.(check int) "worker task counts sum to completed" 50
      (List.fold_left (fun acc (_, n, _) -> acc + n) 0 st.Util.Pool.st_workers)

let test_global_stats_no_pool () =
  (* at jobs=1 no pool exists and the exporter must not fabricate one *)
  Util.Pool.set_default_jobs 1;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  Alcotest.(check bool) "no stats without a pool" true
    (Util.Pool.global_stats () = None)

(* ------------------------------------------------------------------ *)
(* bench-diff gate policy                                              *)
(* ------------------------------------------------------------------ *)

let write_temp contents =
  let path = Filename.temp_file "adcheck-fr" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let load_ok what path =
  match Benchdiff.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s failed to load: %s" what e

(* A real exporter record self-compares clean end to end (file -> load
   -> diff), which is exactly what `make check` gates on. *)
let test_benchdiff_self_compare () =
  let json =
    with_fresh_sink @@ fun () ->
    Telemetry.install_tick_clock ();
    Fun.protect ~finally:Telemetry.use_wall_clock @@ fun () ->
    Telemetry.incr "work.items" ~by:3;
    Telemetry.timed "work.step_us" (fun () -> ());
    Telemetry.observe "work.sizes" 17.0;
    Telemetry.metrics_json ()
  in
  let path = write_temp json in
  let r = load_ok "metrics record" path in
  Alcotest.(check bool) "self-compare is clean" true
    (Benchdiff.ok (Benchdiff.diff ~fail_on_regress_pct:10.0 r r));
  (* the loader classified the series: value-histogram buckets compare
     exactly, the timing histogram contributes a thresholded sum *)
  Alcotest.(check bool) "value buckets are exact series" true
    (List.exists (fun (k, _) -> k = "work.sizes/bucket[16]") r.Benchdiff.r_counters);
  Alcotest.(check bool) "timing sum is a latency series" true
    (List.exists (fun (k, _, _) -> k = "work.step_us/sum") r.Benchdiff.r_latencies);
  Alcotest.(check bool) "timing buckets are not exact series" true
    (not
       (List.exists
          (fun (k, _) ->
            String.length k > 13 && String.sub k 0 13 = "work.step_us/"
            && k <> "work.step_us/count")
          r.Benchdiff.r_counters))

let test_benchdiff_latency_regression () =
  let base =
    { Benchdiff.r_schema = "adcheck-metrics/1";
      r_counters = [ ("a", 1) ];
      r_latencies = [ ("t/sum", 10_000.0, 1000.0) ] }
  in
  let slow =
    { base with Benchdiff.r_latencies = [ ("t/sum", 25_000.0, 1000.0) ] }
  in
  (match Benchdiff.diff ~fail_on_regress_pct:10.0 base slow with
   | [ Benchdiff.Latency_regression ("t/sum", 10_000.0, 25_000.0, _) ] -> ()
   | fs -> Alcotest.failf "expected one regression, got: %s" (Benchdiff.render fs));
  (* the same delta below the absolute floor is noise, not a finding *)
  let tiny_base = { base with Benchdiff.r_latencies = [ ("t/sum", 10.0, 1000.0) ] } in
  let tiny_slow = { base with Benchdiff.r_latencies = [ ("t/sum", 25.0, 1000.0) ] } in
  Alcotest.(check bool) "below-floor drift passes" true
    (Benchdiff.ok (Benchdiff.diff ~fail_on_regress_pct:10.0 tiny_base tiny_slow));
  (* improvements pass silently *)
  Alcotest.(check bool) "improvement passes" true
    (Benchdiff.ok (Benchdiff.diff ~fail_on_regress_pct:10.0 slow base))

let test_benchdiff_counter_exact () =
  let base =
    { Benchdiff.r_schema = "adcheck-metrics/1";
      r_counters = [ ("a", 1); ("b", 2) ];
      r_latencies = [] }
  in
  let changed = { base with Benchdiff.r_counters = [ ("a", 1); ("b", 3) ] } in
  (match Benchdiff.diff ~fail_on_regress_pct:10.0 base changed with
   | [ Benchdiff.Counter_changed ("b", 2, 3) ] -> ()
   | fs -> Alcotest.failf "expected counter finding, got: %s" (Benchdiff.render fs));
  let missing = { base with Benchdiff.r_counters = [ ("a", 1) ] } in
  (match Benchdiff.diff ~fail_on_regress_pct:10.0 base missing with
   | [ Benchdiff.Series_missing ("new", "b") ] -> ()
   | fs -> Alcotest.failf "expected missing-series finding, got: %s"
             (Benchdiff.render fs));
  let other = { base with Benchdiff.r_schema = "adcheck-bench/1" } in
  match Benchdiff.diff ~fail_on_regress_pct:10.0 base other with
  | Benchdiff.Schema_mismatch _ :: _ -> ()
  | fs -> Alcotest.failf "expected schema mismatch, got: %s" (Benchdiff.render fs)

let test_benchdiff_bench_schema () =
  let bench =
    {|{"schema": "adcheck-bench/1",
       "counters": {"total": 12},
       "experiments": [
         {"name": "audit", "jobs": 2, "wall_ms": 120.5,
          "counters": {"misra.violations": 7}}]}|}
  in
  let r = load_ok "bench record" (write_temp bench) in
  Alcotest.(check string) "schema" "adcheck-bench/1" r.Benchdiff.r_schema;
  Alcotest.(check bool) "global counter kept" true
    (List.mem ("total", 12) r.Benchdiff.r_counters);
  Alcotest.(check bool) "experiment counter keyed by name@jobs" true
    (List.mem ("audit@2/misra.violations", 7) r.Benchdiff.r_counters);
  Alcotest.(check bool) "wall time is a latency" true
    (List.exists (fun (k, _, _) -> k = "audit@2/wall_ms") r.Benchdiff.r_latencies);
  Alcotest.(check bool) "self-compare clean" true
    (Benchdiff.ok (Benchdiff.diff ~fail_on_regress_pct:10.0 r r))

let test_benchdiff_load_errors () =
  (match Benchdiff.load "/nonexistent/adcheck.json" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected unreadable-file error");
  (match Benchdiff.load (write_temp "{not json") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected parse error");
  match Benchdiff.load (write_temp {|{"schema": "adcheck-metrics/99"}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-schema error"

let () =
  Alcotest.run "flight-recorder"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "observe" `Quick test_hist_observe;
          Alcotest.test_case "bucket bounds tile" `Quick test_hist_bucket_bounds;
          Alcotest.test_case "quantile clamps to extrema" `Quick
            test_hist_quantile_clamped;
          Alcotest.test_case "quantile ranks zeros first" `Quick
            test_hist_quantile_zeros_first;
          Alcotest.test_case "merge identity" `Quick test_hist_merge_identity;
          Alcotest.test_case "copy is independent" `Quick
            test_hist_copy_independent;
        ] );
      ( "histogram-properties",
        [
          QCheck_alcotest.to_alcotest prop_merge_partition;
          QCheck_alcotest.to_alcotest prop_merge_order;
          QCheck_alcotest.to_alcotest prop_merge_empty_identity;
          QCheck_alcotest.to_alcotest prop_quantiles_monotone;
          QCheck_alcotest.to_alcotest prop_count_splits;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace escapes hostile names" `Quick
            test_chrome_trace_escaping;
          Alcotest.test_case "metrics escapes hostile names" `Quick
            test_metrics_escaping;
          Alcotest.test_case "chrome trace events sorted" `Quick
            test_chrome_trace_sorted;
          Alcotest.test_case "chrome trace golden (tick clock)" `Quick
            test_chrome_trace_golden;
          Alcotest.test_case "runtime tier partition" `Quick
            test_runtime_tier_partition;
        ] );
      ( "differential",
        [
          Alcotest.test_case "metrics identical at jobs=2" `Slow
            test_metrics_jobs2;
          Alcotest.test_case "metrics identical at jobs=8" `Slow
            test_metrics_jobs8;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submitted = completed" `Quick
            test_pool_stats_balanced;
          Alcotest.test_case "no stats without a pool" `Quick
            test_global_stats_no_pool;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "self-compare clean" `Quick
            test_benchdiff_self_compare;
          Alcotest.test_case "latency policy" `Quick
            test_benchdiff_latency_regression;
          Alcotest.test_case "counter policy" `Quick test_benchdiff_counter_exact;
          Alcotest.test_case "bench schema" `Quick test_benchdiff_bench_schema;
          Alcotest.test_case "load errors" `Quick test_benchdiff_load_errors;
        ] );
    ]
