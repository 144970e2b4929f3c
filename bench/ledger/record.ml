(* Results and the adcheck-ledger/1 record: what one run reports, how a
   workload's two passes combine, and [verify], which checks that two
   records of the same code agree. *)

module Json = Benchdiff.Json

type value = { v : float; unit_ : string; note : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * value) list;  (** in report order *)
}

(* ---- JSON output ---------------------------------------------------- *)

let str s = "\"" ^ Telemetry.json_escape s ^ "\""

(* Every digit of the measured value: a time that reads the same on
   every run would be indistinguishable from a constant. *)
let num x =
  if not (Float.is_finite x) then invalid_arg "Record.num: non-finite value"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  obj
    (List.map
       (fun (name, x) ->
         ( name,
           obj
             ([ ("value", num x.v); ("unit", str x.unit_) ]
             @ if x.note = "" then [] else [ ("note", str x.note) ]) ))
       ms)

(* The line a run ends with: exactly the keys the benchmark contract
   names, the metrics restricted to one declared kind. *)
let result_line r ~kind =
  let declared =
    List.filter
      (fun (name, _) ->
        match Spec.find_metric name with Some m -> m.Spec.kind = kind | None -> false)
      r.metrics
  in
  obj
    [ ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json (List.map (fun (n, x) -> (n, { x with note = "" })) declared)) ]

(* ---- reading a run's output ----------------------------------------- *)

(* A run prints "metric NAME VALUE UNIT [NOTE]" for everything it
   measured, then the result line. *)
let metric_line name x =
  Printf.sprintf "metric %s %s %s%s" name (num x.v) x.unit_
    (if x.note = "" then "" else " " ^ x.note)

let parse_output text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let metrics =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "metric"; name; v; unit_ ] -> Some (name, { v = float_of_string v; unit_; note = "" })
        | [ "metric"; name; v; unit_; note ] -> Some (name, { v = float_of_string v; unit_; note })
        | _ -> None)
      lines
  in
  match List.rev lines with
  | [] -> Error "no output"
  | last :: _ -> (
    match Json.parse last with
    | exception Json.Parse_error e -> Error ("last line is not JSON: " ^ e)
    | j -> (
      match (Json.member "correct" j, Json.member "attempted" j, Json.member "failed" j) with
      | Some (Json.Bool correct), Some (Json.Num a), Some (Json.Num f) ->
        Ok { correct; attempted = int_of_float a; failed = int_of_float f; metrics }
      | _ -> Error "result line lacks correct/attempted/failed"))

(* ---- the adcheck-ledger/1 record ------------------------------------ *)

type workload_record = { wr_name : string; wr_untraced : result; wr_traced : result }

let schema = "adcheck-ledger/1"

let to_json ~header workloads =
  let workload w =
    obj
      [ ("name", str w.wr_name);
        ("correct", string_of_bool (w.wr_untraced.correct && w.wr_traced.correct));
        ("attempted", string_of_int w.wr_untraced.attempted);
        ("failed", string_of_int w.wr_untraced.failed);
        ("traced_attempted", string_of_int w.wr_traced.attempted);
        ("traced_failed", string_of_int w.wr_traced.failed);
        ("metrics", metrics_json (w.wr_untraced.metrics @ w.wr_traced.metrics)) ]
  in
  Printf.sprintf "{\n  \"schema\": %s,\n  \"header\": %s,\n  \"workloads\": [\n    %s\n  ]\n}\n"
    (str schema) (obj header)
    (String.concat ",\n    " (List.map workload workloads))

type loaded = {
  l_header : (string * Json.t) list;
  l_workloads : (string * (bool * int * (string * float) list)) list;
      (** name -> correct, failed (both passes), metric values *)
}

let load path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* j = try Ok (Json.parse text) with Json.Parse_error e -> Error (path ^ ": " ^ e) in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> Ok ()
    | _ -> Error (path ^ ": not an " ^ schema ^ " record")
  in
  let header = match Json.member "header" j with Some (Json.Obj h) -> h | _ -> [] in
  let num_of = function Some (Json.Num x) -> x | _ -> 0.0 in
  let workloads =
    match Json.member "workloads" j with
    | Some (Json.Arr ws) ->
      List.filter_map
        (fun w ->
          match (Json.member "name" w, Json.member "metrics" w) with
          | Some (Json.Str name), Some (Json.Obj ms) ->
            let correct = Json.member "correct" w = Some (Json.Bool true) in
            let failed =
              int_of_float (num_of (Json.member "failed" w) +. num_of (Json.member "traced_failed" w))
            in
            Some
              ( name,
                (correct, failed, List.map (fun (k, m) -> (k, num_of (Json.member "value" m))) ms) )
          | _ -> None)
        ws
    | _ -> []
  in
  Ok { l_header = header; l_workloads = workloads }

(* ---- verify ---------------------------------------------------------- *)

(* End-to-end bounds as BENCHMARK.json declares them. *)
let load_bounds path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | exception (Sys_error e | Json.Parse_error e) -> Error e
  | j -> (
    match Json.member "end_to_end" j with
    | Some (Json.Arr ms) ->
      Ok
        (List.filter_map
           (fun m ->
             match (Json.member "name" m, Json.member "bound" m) with
             | Some (Json.Str n), Some (Json.Num b) -> Some (n, b)
             | _ -> None)
           ms)
    | _ -> Error (path ^ ": no end_to_end list"))

type row = { r_workload : string; r_metric : string; r_a : string; r_b : string; r_ok : bool; r_why : string }

(* Two records of the same code agree when both are correct, every
   exact work count is identical, and every bounded end-to-end metric
   differs by at most its bound (as a share of the first record's
   value). *)
let verify ~bounds a b =
  let seed r = List.assoc_opt "seed" r.l_header in
  let seed_row =
    { r_workload = "-"; r_metric = "seed";
      r_a = (match seed a with Some (Json.Num x) -> num x | _ -> "?");
      r_b = (match seed b with Some (Json.Num x) -> num x | _ -> "?");
      r_ok = seed a = seed b; r_why = "same inputs" }
  in
  let workload_rows (name, (ca, fa, ma)) =
    match List.assoc_opt name b.l_workloads with
    | None ->
      [ { r_workload = name; r_metric = "-"; r_a = "present"; r_b = "missing"; r_ok = false;
          r_why = "workload sets differ" } ]
    | Some (cb, fb, mb) ->
      let correct =
        { r_workload = name; r_metric = "failed"; r_a = string_of_int fa; r_b = string_of_int fb;
          r_ok = ca && cb && fa = 0 && fb = 0; r_why = "every request correct" }
      in
      let judged (metric, va) =
        let vb = List.assoc_opt metric mb in
        let row ok why =
          Some
            { r_workload = name; r_metric = metric; r_a = num va;
              r_b = (match vb with Some x -> num x | None -> "missing"); r_ok = ok; r_why = why }
        in
        match (Spec.find_metric metric, List.assoc_opt metric bounds, vb) with
        | _, _, None -> row false "missing in the second record"
        | Some { Spec.exact = true; _ }, _, Some x -> row (x = va) "exact work count"
        | _, Some bound, Some x ->
          let share = if va = 0.0 then Float.abs x else Float.abs (x -. va) /. va in
          row (share <= bound)
            (Printf.sprintf "%+.1f%% (bound %.0f%%)" (100.0 *. (x -. va) /. Float.max va 1e-12)
               (100.0 *. bound))
        | _ -> None
      in
      correct :: List.filter_map judged ma
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name a.l_workloads then None
        else
          Some { r_workload = name; r_metric = "-"; r_a = "missing"; r_b = "present"; r_ok = false;
                 r_why = "workload sets differ" })
      b.l_workloads
  in
  (seed_row :: List.concat_map workload_rows a.l_workloads) @ missing
