(* The ledger's catalogue: its workloads and every metric it reports.
   BENCHMARK.json declares the same names and units; the smoke test in
   test_ledger.ml fails when the two drift apart. *)

type scale = Small | Full

(* How a workload's requests reach the analysis layers. *)
type mode =
  | Cold  (** no store: every request recomputes every layer *)
  | Warm  (** pre-filled store, the unchanged tree on every request *)
  | Edit  (** pre-filled store, a fresh one-file edit on every request *)

type workload = {
  w_name : string;
  w_scale : scale;
  w_mode : mode;
  w_requests : int;  (** untraced requests in the one-command ledger *)
  w_traced : int;  (** traced requests in the one-command ledger *)
}

(* Request counts keep the whole ledger to about five minutes on a 2-core
   machine and give every small-scale workload at least 40 samples, so that
   its p75 has ten samples beyond it (p90 at 100). *)
let workloads =
  [
    { w_name = "audit-full-cold"; w_scale = Full; w_mode = Cold;
      w_requests = 3; w_traced = 1 };
    { w_name = "audit-small-cold"; w_scale = Small; w_mode = Cold;
      w_requests = 40; w_traced = 5 };
    { w_name = "serve-warm"; w_scale = Small; w_mode = Warm;
      w_requests = 100; w_traced = 10 };
    { w_name = "audit-edit"; w_scale = Small; w_mode = Edit;
      w_requests = 40; w_traced = 10 };
  ]

let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

type kind =
  | End_to_end  (** measured untraced; declared with a bound *)
  | Per_layer  (** measured in the traced pass; declared without a bound *)
  | Extra
      (** printed and recorded but not declared: raw timings that drift
          with the machine, values defined only where the run has enough
          samples, or zero by construction *)

type metric = {
  name : string;
  unit_ : string;
  kind : kind;
  exact : bool;  (** a work count: two runs of the same code must agree *)
}

let m ?(exact = false) kind name unit_ = { name; unit_; kind; exact }

let metrics =
  [
    m End_to_end "audit_p50_rel" "probes";
    m End_to_end "peak_rss_mb" "MB";
    m End_to_end "setup_s" "s";
    m Extra "audit_p50_s" "s";
    m Extra "kloc_per_s" "kLOC/s";
    m Extra "probe_ms" "ms";
    m Extra "audit_tail_s" "s";
    m Extra "failed_frac" "fraction";
    m Extra "requests" "count";
    m Per_layer "corpus.generate_ms" "ms";
    m Per_layer ~exact:true "corpus.kloc" "kLOC";
    m Per_layer "cfront.parse_ms" "ms";
    m Per_layer "cfront.us_per_kb" "us/kB";
    m Per_layer "cfront.alloc_mw" "Mw";
    m Per_layer "misra.run_ms" "ms";
    m Per_layer "misra.us_per_fn" "us/fn";
    m Per_layer "misra.alloc_mw" "Mw";
    m Per_layer ~exact:true "misra.violations" "count";
    m Per_layer "dataflow.solve_ms" "ms";
    m Per_layer "dataflow.us_per_transfer" "us/transfer";
    m Per_layer ~exact:true "dataflow.transfers" "count";
    m Per_layer "dataflow.alloc_mw" "Mw";
    m Per_layer "interproc.analyze_ms" "ms";
    m Per_layer "interproc.us_per_fn" "us/fn";
    m Per_layer "interproc.alloc_mw" "Mw";
    m Per_layer "metrics.core_ms" "ms";
    m Per_layer "metrics.us_per_fn" "us/fn";
    m Per_layer "metrics.alloc_mw" "Mw";
    m Per_layer ~exact:true "metrics.functions" "count";
    m Per_layer "coverage.run_ms" "ms";
    m Per_layer "coverage.us_per_stmt" "us/stmt";
    m Per_layer ~exact:true "coverage.stmts" "count";
    m Per_layer "coverage.alloc_mw" "Mw";
    m Per_layer "iso26262.assess_ms" "ms";
    m Per_layer "iso26262.render_ms" "ms";
    m Per_layer ~exact:true "iso26262.report_kb" "kB";
    m Per_layer ~exact:true "cache.hits" "count";
    m Per_layer ~exact:true "cache.misses" "count";
    m Per_layer "cache.hit_ratio" "fraction";
    m Per_layer "cache.store_mb" "MB";
    m Per_layer "provenance.journal_ms" "ms";
    m Per_layer ~exact:true "provenance.findings" "count";
    m Per_layer "trace.residual_frac" "fraction";
  ]

let find_metric name = List.find_opt (fun x -> x.name = name) metrics
let of_kind k = List.filter (fun x -> x.kind = k) metrics
