(** Process-global instrumentation sink.  See telemetry.mli. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* The clock yields microseconds directly: under the tick clock the
   readings are small integers, which float subtraction differences
   exactly — a seconds-based clock scaled by 1e6 would round and smear
   one-tick durations across two adjacent histogram buckets. *)
let wall_clock () = Unix.gettimeofday () *. 1e6

let clock = ref wall_clock

(* Spans read a clock of their own.  Under the wall clock the two are
   the same source; under the tick clock they are independent streams,
   because span creation is conditional on the domain (suppressed while
   a worker buffers metrics): if span bookkeeping consumed work-tier
   ticks, a timed region whose body opens a span would measure three
   ticks sequentially and one tick on a worker — exactly the
   jobs-dependence the tick clock exists to rule out. *)
let span_clock = ref wall_clock

let now_us () = !clock ()
let span_now_us () = !span_clock ()

let install_tick_clock () =
  (* One tick counter per domain: a clock read on a worker domain must
     not perturb main-domain timestamps (or vice versa), so that a timed
     region's duration depends only on the clock reads made *inside* the
     region on its own domain.  That is what makes attributed-timing
     histogram samples identical at every --jobs value: a region with no
     nested reads always measures exactly one tick, wherever it ran. *)
  let tick_stream () =
    let key = Domain.DLS.new_key (fun () -> ref (-1.0)) in
    fun () ->
      let t = Domain.DLS.get key in
      t := !t +. 1.0;
      !t
  in
  clock := tick_stream ();
  span_clock := tick_stream ()

let use_wall_clock () =
  clock := wall_clock;
  span_clock := wall_clock

(* The pool's queue-wait/task-latency instrumentation always reads the
   wall clock, never the pluggable one: pool metrics are runtime-tier
   (excluded from the cross-jobs oracle), and under the tick clock any
   pool read on a worker domain would advance that domain's tick counter
   and perturb the work-tier timed regions running there.  Top-level
   effect: runs when the telemetry library is linked (every executable
   here). *)
let () = Util.Pool.set_clock wall_clock

(* ------------------------------------------------------------------ *)
(* Sink state                                                          *)
(* ------------------------------------------------------------------ *)

type attr = string * string

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;
  ev_tid : int;
  ev_attrs : attr list;
}

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_us : float;
  sp_depth : int;
  sp_tid : int;
  mutable sp_attrs : attr list;
  mutable sp_closed : bool;
}

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let on = ref false
let events_rev : event list ref = ref []
let open_depth = ref 0
let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let hists_tbl : (string, Util.Histogram.t) Hashtbl.t = Hashtbl.create 32

(** GC cost per named phase (deltas of [Gc.quick_stat] around the
    phase body), summed when a phase repeats. *)
type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_compactions : int;
}

let gc_tbl : (string, gc_delta) Hashtbl.t = Hashtbl.create 16

(* Per-domain metric buffer.  When a buffer is installed (pool workers
   running under [collect_metrics]) counter adds and histogram samples
   go to the buffer without touching the global mutex, and span creation
   is suppressed — the caller merges buffers deterministically in
   submission order (counter merge is integer addition, histogram merge
   is per-bucket addition; both commutative and associative, so merged
   state is identical to the sequential run).  Buffers nest: an inner
   [collect_metrics] shadows the outer one and [absorb_metrics] feeds
   whichever sink is active. *)
type buffer = {
  buf_counters : (string, int) Hashtbl.t;
  buf_hists : (string, Util.Histogram.t) Hashtbl.t;
}

let local_buf : buffer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_enabled b =
  on := b;
  (* the pool's flight-recorder gate follows the sink switch, so the
     telemetry-overhead experiment compares truly-off against fully-on *)
  Util.Pool.set_metrics b

let enabled () = !on

let reset () =
  locked (fun () ->
      events_rev := [];
      open_depth := 0;
      Hashtbl.reset counters_tbl;
      Hashtbl.reset gauges_tbl;
      Hashtbl.reset hists_tbl;
      Hashtbl.reset gc_tbl)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let inert_span =
  { sp_name = ""; sp_cat = ""; sp_start_us = 0.0; sp_depth = 0; sp_tid = 0;
    sp_attrs = []; sp_closed = true }

let start_span ?(cat = "adcheck") ?(attrs = []) name =
  if (not !on) || Domain.DLS.get local_buf <> None then inert_span
  else
    locked (fun () ->
        let sp =
          { sp_name = name; sp_cat = cat; sp_start_us = span_now_us ();
            sp_depth = !open_depth; sp_tid = (Domain.self () :> int);
            sp_attrs = attrs; sp_closed = false }
        in
        incr open_depth;
        sp)

let add_attr sp k v = if not sp.sp_closed then sp.sp_attrs <- sp.sp_attrs @ [ (k, v) ]

let end_span ?(attrs = []) sp =
  if not sp.sp_closed then
    locked (fun () ->
        sp.sp_closed <- true;
        open_depth := Stdlib.max 0 (!open_depth - 1);
        let stop = span_now_us () in
        events_rev :=
          { ev_name = sp.sp_name; ev_cat = sp.sp_cat;
            ev_start_us = sp.sp_start_us;
            ev_dur_us = Stdlib.max 0.0 (stop -. sp.sp_start_us);
            ev_depth = sp.sp_depth; ev_tid = sp.sp_tid;
            ev_attrs = sp.sp_attrs @ attrs }
          :: !events_rev)

let with_span ?cat ?attrs name f =
  if not !on then f ()
  else begin
    let sp = start_span ?cat ?attrs name in
    Fun.protect ~finally:(fun () -> end_span sp) f
  end

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let bump tbl name by =
  Hashtbl.replace tbl name
    (by + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let add name by =
  if !on && by <> 0 then
    match Domain.DLS.get local_buf with
    | Some b -> bump b.buf_counters name by
    | None -> locked (fun () -> bump counters_tbl name by)

let incr ?(by = 1) name = add name by

let set_gauge name v = if !on then locked (fun () -> Hashtbl.replace gauges_tbl name v)

let max_gauge name v =
  if !on then
    locked (fun () ->
        match Hashtbl.find_opt gauges_tbl name with
        | Some old when old >= v -> ()
        | _ -> Hashtbl.replace gauges_tbl name v)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let hist_of tbl name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h = Util.Histogram.create () in
    Hashtbl.add tbl name h;
    h

let observe name v =
  if !on then
    match Domain.DLS.get local_buf with
    | Some b -> Util.Histogram.observe (hist_of b.buf_hists name) v
    | None -> locked (fun () -> Util.Histogram.observe (hist_of hists_tbl name) v)

let timed name f =
  if not !on then f ()
  else begin
    let t0 = now_us () in
    Fun.protect ~finally:(fun () -> observe name (now_us () -. t0)) f
  end

(* GC sampling around a named phase: quick_stat deltas (minor/major/
   promoted words, collection and compaction counts) accumulated per
   phase name, plus the phase wall time as a "phase.<name>_us" histogram
   sample.  Both are runtime telemetry — worker placement and allocation
   rates legitimately vary with --jobs — and live outside the
   deterministic oracle sections of the metrics export. *)
let gc_phase name f =
  if not !on then f ()
  else begin
    let t0 = now_us () in
    let a = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let b = Gc.quick_stat () in
        observe ("phase." ^ name ^ "_us") (now_us () -. t0);
        let d =
          { gd_minor_words = b.Gc.minor_words -. a.Gc.minor_words;
            gd_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
            gd_major_words = b.Gc.major_words -. a.Gc.major_words;
            gd_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
            gd_major_collections = b.Gc.major_collections - a.Gc.major_collections;
            gd_compactions = b.Gc.compactions - a.Gc.compactions }
        in
        locked (fun () ->
            let d =
              match Hashtbl.find_opt gc_tbl name with
              | None -> d
              | Some p ->
                { gd_minor_words = p.gd_minor_words +. d.gd_minor_words;
                  gd_promoted_words = p.gd_promoted_words +. d.gd_promoted_words;
                  gd_major_words = p.gd_major_words +. d.gd_major_words;
                  gd_minor_collections =
                    p.gd_minor_collections + d.gd_minor_collections;
                  gd_major_collections =
                    p.gd_major_collections + d.gd_major_collections;
                  gd_compactions = p.gd_compactions + d.gd_compactions }
            in
            Hashtbl.replace gc_tbl name d))
      f
  end

(* ------------------------------------------------------------------ *)
(* Per-domain aggregation and the parallel map veneer                  *)
(* ------------------------------------------------------------------ *)

(* Metrics collected on one domain: counters and histograms, each
   sorted by name. *)
type batch = {
  batch_counters : (string * int) list;
  batch_hists : (string * Util.Histogram.t) list;
}

let collect_metrics f =
  let prev = Domain.DLS.get local_buf in
  let buf = { buf_counters = Hashtbl.create 32; buf_hists = Hashtbl.create 8 } in
  Domain.DLS.set local_buf (Some buf);
  let finish () = Domain.DLS.set local_buf prev in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  match f () with
  | v ->
    finish ();
    (v, { batch_counters = sorted buf.buf_counters;
          batch_hists = sorted buf.buf_hists })
  | exception e ->
    finish ();
    raise e

let absorb_metrics b =
  List.iter (fun (k, n) -> add k n) b.batch_counters;
  if !on then
    List.iter
      (fun (name, h) ->
        match Domain.DLS.get local_buf with
        | Some buf ->
          Util.Histogram.merge_into ~into:(hist_of buf.buf_hists name) h
        | None ->
          locked (fun () ->
              Util.Histogram.merge_into ~into:(hist_of hists_tbl name) h))
      b.batch_hists

let parallel_map ?chunk_size f xs =
  match Util.Pool.global () with
  | None -> List.map f xs
  | Some pool ->
    let tagged =
      Util.Pool.map_chunked ?chunk_size pool
        (fun x -> collect_metrics (fun () -> f x))
        xs
    in
    List.map
      (fun (y, batch) ->
        absorb_metrics batch;
        y)
      tagged

(* ------------------------------------------------------------------ *)
(* Reading the sink                                                    *)
(* ------------------------------------------------------------------ *)

let events () =
  let evs = locked (fun () -> List.rev !events_rev) in
  List.stable_sort
    (fun a b ->
      let c = compare a.ev_start_us b.ev_start_us in
      if c <> 0 then c else compare a.ev_depth b.ev_depth)
    evs

let counter name =
  locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counters_tbl name))

let counters () =
  locked (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters_tbl []))

type counter_snapshot = (string * int) list

let snapshot_counters () = counters ()

let counters_since snap =
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt k snap) in
      if d <> 0 then Some (k, d) else None)
    (counters ())

let gauges () =
  locked (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl []))

let histograms () =
  locked (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun k h acc -> (k, Util.Histogram.copy h) :: acc)
           hists_tbl []))

let gc_phases () =
  locked (fun () ->
      List.sort compare (Hashtbl.fold (fun k d acc -> (k, d) :: acc) gc_tbl []))

(* Runtime-tier metric names: legitimately dependent on --jobs and
   scheduling (worker placement, queue waits, GC pressure, phase wall
   time under span suppression).  Everything else is work-tier and must
   be byte-identical across jobs under the tick clock — the differential
   tests compare [metrics_json ~runtime:false] outputs directly. *)
let is_runtime_metric name =
  let has_prefix p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  has_prefix "pool." || has_prefix "gc." || has_prefix "phase."

let top_counters ~prefix n =
  let p = String.length prefix in
  let matching =
    List.filter_map
      (fun (k, v) ->
        if String.length k > p && String.sub k 0 p = prefix then
          Some (String.sub k p (String.length k - p), v)
        else None)
      (counters ())
  in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare (b : int) a) matching
  in
  List.filteri (fun i _ -> i < n) sorted

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let chrome_trace () =
  (* Export order is (ts, tid, name): ties on timestamp (common under the
     tick clock, where distinct domains read distinct counters) resolve
     by thread id then name, so two runs of the same workload serialize
     events identically and traces diff cleanly. *)
  let evs =
    List.stable_sort
      (fun a b ->
        let c = compare a.ev_start_us b.ev_start_us in
        if c <> 0 then c
        else
          let c = compare a.ev_tid b.ev_tid in
          if c <> 0 then c else compare a.ev_name b.ev_name)
      (events ())
  in
  let base =
    match evs with [] -> 0.0 | e :: _ -> e.ev_start_us
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d"
           (json_escape e.ev_name) (json_escape e.ev_cat)
           (json_num (e.ev_start_us -. base))
           (json_num e.ev_dur_us) e.ev_tid);
      if e.ev_attrs <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          e.ev_attrs;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    evs;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    (counters ());
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (json_num v)))
    (gauges ());
  Buffer.add_string buf "}}}\n";
  Buffer.contents buf

let write_chrome_trace ~path =
  let oc = open_out path in
  output_string oc (chrome_trace ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* adcheck-metrics/1                                                   *)
(* ------------------------------------------------------------------ *)

let hist_json h =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\":%d,\"zeros\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"buckets\":["
       (Util.Histogram.count h) (Util.Histogram.zeros h)
       (json_num (Util.Histogram.sum h))
       (json_num (Util.Histogram.min_value h))
       (json_num (Util.Histogram.max_value h))
       (json_num (Util.Histogram.p50 h))
       (json_num (Util.Histogram.p90 h))
       (json_num (Util.Histogram.p99 h)));
  List.iteri
    (fun i (idx, c) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" idx c))
    (Util.Histogram.buckets h);
  Buffer.add_string b "]}";
  Buffer.contents b

let obj_of b ~name entries render =
  Buffer.add_string b (Printf.sprintf "\"%s\":{" name);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (json_escape k) (render v)))
    entries;
  Buffer.add_char b '}'

(* The machine-readable flight-recorder export.  [runtime:false] yields
   only the deterministic sections — schema, work-tier counters and
   histograms — whose bytes the jobs differential compares; the default
   adds the "runtime" section (jobs, gauges, runtime-tier histograms,
   per-phase GC deltas, pool stats), which varies across --jobs and
   wall-clock runs by design. *)
let metrics_json ?(runtime = true) () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"adcheck-metrics/1\",";
  let work_counters, _ = List.partition (fun (k, _) -> not (is_runtime_metric k)) (counters ()) in
  let work_hists, run_hists =
    List.partition (fun (k, _) -> not (is_runtime_metric k)) (histograms ())
  in
  obj_of b ~name:"counters" work_counters string_of_int;
  Buffer.add_char b ',';
  obj_of b ~name:"histograms" work_hists hist_json;
  if runtime then begin
    Buffer.add_string b ",\"runtime\":{";
    Buffer.add_string b
      (Printf.sprintf "\"jobs\":%d," (Util.Pool.default_jobs ()));
    obj_of b ~name:"gauges" (gauges ()) json_num;
    Buffer.add_char b ',';
    obj_of b ~name:"histograms" run_hists hist_json;
    Buffer.add_char b ',';
    obj_of b ~name:"gc" (gc_phases ()) (fun d ->
        Printf.sprintf
          "{\"minor_words\":%s,\"promoted_words\":%s,\"major_words\":%s,\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d}"
          (json_num d.gd_minor_words) (json_num d.gd_promoted_words)
          (json_num d.gd_major_words) d.gd_minor_collections
          d.gd_major_collections d.gd_compactions);
    (match Util.Pool.global_stats () with
     | None -> ()
     | Some st ->
       Buffer.add_string b
         (Printf.sprintf
            ",\"pool\":{\"jobs\":%d,\"submitted\":%d,\"completed\":%d,\"inline\":%d,\"since_us\":%s,\"workers\":["
            st.Util.Pool.st_jobs st.Util.Pool.st_submitted
            st.Util.Pool.st_completed st.Util.Pool.st_inline
            (json_num st.Util.Pool.st_since_us));
       List.iteri
         (fun i (id, tasks, busy) ->
           if i > 0 then Buffer.add_char b ',';
           Buffer.add_string b
             (Printf.sprintf "{\"id\":%d,\"tasks\":%d,\"busy_us\":%s}" id tasks
                (json_num busy)))
         st.Util.Pool.st_workers;
       Buffer.add_string b "],\"queue_wait\":";
       Buffer.add_string b (hist_json st.Util.Pool.st_queue_wait);
       Buffer.add_string b ",\"task_run\":";
       Buffer.add_string b (hist_json st.Util.Pool.st_task_run);
       Buffer.add_char b '}');
    Buffer.add_char b '}'
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_metrics ~path () =
  let oc = open_out path in
  output_string oc (metrics_json ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Summary tables                                                      *)
(* ------------------------------------------------------------------ *)

let span_summary () =
  let tbl : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.ev_name with
      | Some (n, total, mx) ->
        Stdlib.incr n;
        total := !total +. e.ev_dur_us;
        mx := Stdlib.max !mx e.ev_dur_us
      | None -> Hashtbl.add tbl e.ev_name (ref 1, ref e.ev_dur_us, ref e.ev_dur_us))
    (events ());
  let rows =
    Hashtbl.fold (fun name (n, total, mx) acc -> (name, !n, !total, !mx) :: acc) tbl []
  in
  List.stable_sort
    (fun (n1, _, t1, _) (n2, _, t2, _) ->
      let c = compare (t2 : float) t1 in
      if c <> 0 then c else compare n1 n2)
    rows

let hot_fn_prefix = "interp.fn."

let ms us = Printf.sprintf "%.3f" (us /. 1e3)

let stats_tables () =
  let spans = span_summary () in
  let span_tbl =
    List.fold_left
      (fun t (name, n, total, mx) ->
        Util.Table.add_row t
          [ name; string_of_int n; ms total;
            ms (total /. float_of_int (Stdlib.max 1 n)); ms mx ])
      (Util.Table.make ~title:"telemetry: spans"
         ~header:[ "span"; "count"; "total ms"; "mean ms"; "max ms" ]
         ~aligns:[ Util.Table.Left; Util.Table.Right; Util.Table.Right;
                   Util.Table.Right; Util.Table.Right ]
         ())
      spans
  in
  let plain_counters =
    List.filter
      (fun (k, _) ->
        not (String.length k > String.length hot_fn_prefix
             && String.sub k 0 (String.length hot_fn_prefix) = hot_fn_prefix))
      (counters ())
  in
  let counter_tbl =
    List.fold_left
      (fun t (k, v) -> Util.Table.add_row t [ k; string_of_int v ])
      (Util.Table.make ~title:"telemetry: counters"
         ~header:[ "counter"; "value" ]
         ~aligns:[ Util.Table.Left; Util.Table.Right ] ())
      plain_counters
  in
  let hot = top_counters ~prefix:hot_fn_prefix 15 in
  let hot_tbl =
    List.fold_left
      (fun t (fn, n) -> Util.Table.add_row t [ fn; string_of_int n ])
      (Util.Table.make ~title:"telemetry: hot functions (statements interpreted)"
         ~header:[ "function"; "statements" ]
         ~aligns:[ Util.Table.Left; Util.Table.Right ] ())
      hot
  in
  let gauge_tbl =
    List.fold_left
      (fun t (k, v) -> Util.Table.add_row t [ k; json_num v ])
      (Util.Table.make ~title:"telemetry: gauges" ~header:[ "gauge"; "value" ]
         ~aligns:[ Util.Table.Left; Util.Table.Right ] ())
      (gauges ())
  in
  (* Attributed-timing view, hottest first: answers "which rule /
     scenario / function dominates" straight from --stats. *)
  let hist_rows =
    List.stable_sort
      (fun (_, a) (_, b) ->
        compare (Util.Histogram.sum b) (Util.Histogram.sum a))
      (histograms ())
  in
  let hist_tbl =
    List.fold_left
      (fun t (name, h) ->
        Util.Table.add_row t
          [ name; string_of_int (Util.Histogram.count h);
            json_num (Util.Histogram.p50 h); json_num (Util.Histogram.p90 h);
            json_num (Util.Histogram.p99 h);
            json_num (Util.Histogram.max_value h);
            json_num (Util.Histogram.sum h) ])
      (Util.Table.make ~title:"telemetry: histograms"
         ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max"; "total" ]
         ~aligns:[ Util.Table.Left; Util.Table.Right; Util.Table.Right;
                   Util.Table.Right; Util.Table.Right; Util.Table.Right;
                   Util.Table.Right ]
         ())
      hist_rows
  in
  List.filter
    (fun (t : Util.Table.t) -> t.Util.Table.rows <> [])
    [ span_tbl; counter_tbl; hist_tbl; hot_tbl; gauge_tbl ]

let render_stats () =
  String.concat "\n" (List.map Util.Table.render (stats_tables ()))
