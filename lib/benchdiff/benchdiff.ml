(** Performance-record comparison.  See benchdiff.mli. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader                                                 *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
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
             (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape")
           | _ -> fail "bad escape");
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
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
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Extracting comparable series                                        *)
(* ------------------------------------------------------------------ *)

type record = {
  r_schema : string;
  r_counters : (string * int) list;
  r_latencies : (string * float * float) list;
}

exception Bad_record of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_record m)) fmt

let as_obj what = function
  | Json.Obj kvs -> kvs
  | _ -> bad "%s: expected an object" what

let as_arr what = function
  | Json.Arr l -> l
  | _ -> bad "%s: expected an array" what

let as_num what = function
  | Json.Num f -> f
  | _ -> bad "%s: expected a number" what

let as_str what = function
  | Json.Str s -> s
  | _ -> bad "%s: expected a string" what

let get what key j =
  match Json.member key j with
  | Some v -> v
  | None -> bad "%s: missing member %S" what key

let int_entries what j =
  List.map (fun (k, v) -> (k, int_of_float (as_num (what ^ "." ^ k) v))) (as_obj what j)

(* Wall-time floors below which a latency difference is never a
   regression: scheduler noise on sub-millisecond experiments and
   sub-millisecond histogram totals is not signal. *)
let wall_ms_floor = 1.0
let hist_sum_us_floor = 1000.0

(* adcheck-bench/1: per-experiment wall times (thresholded) plus the
   experiment counter snapshots and the final global counters (exact). *)
let of_bench j =
  let counters = ref (int_entries "counters" (get "bench" "counters" j)) in
  let latencies = ref [] in
  List.iter
    (fun e ->
      let name = as_str "experiment.name" (get "experiment" "name" e) in
      let jobs = int_of_float (as_num "experiment.jobs" (get "experiment" "jobs" e)) in
      let tag = Printf.sprintf "%s@%d" name jobs in
      latencies :=
        (tag ^ "/wall_ms", as_num "experiment.wall_ms" (get "experiment" "wall_ms" e),
         wall_ms_floor)
        :: !latencies;
      List.iter
        (fun (k, v) -> counters := (tag ^ "/" ^ k, v) :: !counters)
        (int_entries "experiment.counters" (get "experiment" "counters" e)))
    (as_arr "experiments" (get "bench" "experiments" j));
  { r_schema = "adcheck-bench/1";
    r_counters = List.sort compare !counters;
    r_latencies = List.sort compare !latencies }

(* Timing histograms carry a "_us" component — either a plain suffix
   ("parse.file_us") or followed by a key ("misra.rule_us.10.3"); their
   sample values are wall-clock-dependent between real runs. *)
let is_timing_hist name =
  let n = String.length name in
  let rec scan i =
    if i + 3 > n then false
    else if String.sub name i 3 = "_us" && (i + 3 = n || name.[i + 3] = '.')
    then true
    else scan (i + 1)
  in
  scan 0

(* adcheck-metrics/1: counters exact.  Value histograms (per-file AST
   sizes, per-rule violation counts, ...) are fully deterministic at a
   fixed seed, so count, zeros, bucket contents and (integer-valued) sum
   all compare exactly.  Timing histograms ("*_us") keep an exact sample
   count — how many times a rule ran is a behaviour, not a speed — but
   their durations are thresholded via the time sum; their bucket
   contents and zero counts are wall-clock noise between real runs and
   are not compared.  The "runtime" section is skipped entirely — it
   varies with --jobs and scheduling by design. *)
let of_metrics j =
  let counters = ref (int_entries "counters" (get "metrics" "counters" j)) in
  let latencies = ref [] in
  List.iter
    (fun (name, h) ->
      let whn what = Printf.sprintf "histograms.%s.%s" name what in
      let geti what = int_of_float (as_num (whn what) (get (whn what) what h)) in
      counters := (name ^ "/count", geti "count") :: !counters;
      if is_timing_hist name then
        latencies :=
          (name ^ "/sum", as_num (whn "sum") (get (whn "sum") "sum" h),
           hist_sum_us_floor)
          :: !latencies
      else begin
        counters := (name ^ "/zeros", geti "zeros") :: (name ^ "/sum", geti "sum")
                    :: !counters;
        List.iter
          (fun pair ->
            match as_arr (whn "buckets") pair with
            | [ Json.Num i; Json.Num c ] ->
              counters :=
                (Printf.sprintf "%s/bucket[%d]" name (int_of_float i),
                 int_of_float c)
                :: !counters
            | _ -> bad "%s: expected [index, count] pairs" (whn "buckets"))
          (as_arr (whn "buckets") (get (whn "buckets") "buckets" h))
      end)
    (as_obj "histograms" (get "metrics" "histograms" j));
  { r_schema = "adcheck-metrics/1";
    r_counters = List.sort compare !counters;
    r_latencies = List.sort compare !latencies }

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | contents -> (
    match Json.parse contents with
    | exception Json.Parse_error e -> Error (path ^ ": " ^ e)
    | j -> (
      match Json.member "schema" j with
      | Some (Json.Str "adcheck-bench/1") -> (
        try Ok (of_bench j) with Bad_record e -> Error (path ^ ": " ^ e))
      | Some (Json.Str "adcheck-metrics/1") -> (
        try Ok (of_metrics j) with Bad_record e -> Error (path ^ ": " ^ e))
      | Some (Json.Str s) -> Error (path ^ ": unknown schema " ^ s)
      | _ -> Error (path ^ ": missing schema tag")))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type finding =
  | Schema_mismatch of string * string
  | Counter_changed of string * int * int
  | Series_missing of string * string
  | Latency_regression of string * float * float * float

let diff ~fail_on_regress_pct old_r new_r =
  if old_r.r_schema <> new_r.r_schema then
    [ Schema_mismatch (old_r.r_schema, new_r.r_schema) ]
  else begin
    let exact = ref [] in
    (* both counter lists are sorted: a linear merge classifies every key *)
    let rec walk olds news =
      match (olds, news) with
      | [], [] -> ()
      | (k, _) :: rest, [] ->
        exact := Series_missing ("new", k) :: !exact;
        walk rest []
      | [], (k, _) :: rest ->
        exact := Series_missing ("old", k) :: !exact;
        walk [] rest
      | (ko, vo) :: ro, (kn, vn) :: rn ->
        if ko = kn then begin
          if vo <> vn then exact := Counter_changed (ko, vo, vn) :: !exact;
          walk ro rn
        end
        else if ko < kn then begin
          exact := Series_missing ("new", ko) :: !exact;
          walk ro news
        end
        else begin
          exact := Series_missing ("old", kn) :: !exact;
          walk olds rn
        end
    in
    walk old_r.r_counters new_r.r_counters;
    let regressions =
      List.filter_map
        (fun (k, nv, floor) ->
          match
            List.find_opt (fun (ko, _, _) -> ko = k) old_r.r_latencies
          with
          | None -> None  (* experiments come and go; not a gate failure *)
          | Some (_, ov, _) ->
            if nv -. ov > floor && nv > ov *. (1.0 +. (fail_on_regress_pct /. 100.0))
            then
              Some
                (Latency_regression
                   (k, ov, nv, 100.0 *. ((nv /. Float.max 1e-9 ov) -. 1.0)))
            else None)
        new_r.r_latencies
    in
    List.rev !exact @ regressions
  end

(* Each latency key's median across the runs that have it, under the
   floor of the first of them. *)
let median_latencies runs =
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (k, _, _) -> k) r.r_latencies) runs)
  in
  List.map
    (fun k ->
      let found =
        List.filter_map (fun r -> List.find_opt (fun (k', _, _) -> k' = k) r.r_latencies) runs
      in
      let _, _, floor = List.hd found in
      (k, Util.Stats.median (List.map (fun (_, v, _) -> v) found), floor))
    keys

let is_latency = function Latency_regression _ -> true | _ -> false

let diff_runs ~fail_on_regress_pct old_r runs =
  match runs with
  | [] -> invalid_arg "Benchdiff.diff_runs: no new record"
  | first :: _ ->
    let exact =
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc f -> if is_latency f || List.mem f acc then acc else f :: acc)
            acc (diff ~fail_on_regress_pct old_r r))
        [] runs
      |> List.rev
    in
    let median = { first with r_latencies = median_latencies runs } in
    exact @ List.filter is_latency (diff ~fail_on_regress_pct old_r median)

let ok findings = findings = []

let render_finding = function
  | Schema_mismatch (o, n) -> Printf.sprintf "schema mismatch: old=%s new=%s" o n
  | Counter_changed (k, o, n) -> Printf.sprintf "counter %s: %d -> %d" k o n
  | Series_missing (side, k) -> Printf.sprintf "series %s only in %s record" k
                                  (match side with "new" -> "the old" | _ -> "the new")
  | Latency_regression (k, o, n, pct) ->
    Printf.sprintf "latency %s regressed: %.3f -> %.3f (+%.1f%%)" k o n pct

let render findings =
  match findings with
  | [] -> "bench-diff: no regressions\n"
  | fs ->
    String.concat ""
      (List.map (fun f -> "bench-diff: " ^ render_finding f ^ "\n") fs)
    ^ Printf.sprintf "bench-diff: %d finding(s)\n" (List.length fs)
