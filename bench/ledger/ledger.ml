(* The audit cost ledger: the repository's benchmark.

     ledger.exe [--seed N] [--workload NAME]... [--out FILE]
       Every selected workload (default: all four), each in its own child
       process and one at a time: an untraced pass for the end-to-end
       metrics, then a traced pass for the per-layer metrics.  Prints one
       row per workload and writes an adcheck-ledger/1 record.

     ledger.exe --workload NAME --seed N --trace 0|1 [--seconds S]
       One pass of one workload in this process.  Prints every metric it
       measured as "metric NAME VALUE UNIT", then one JSON result line
       holding the end-to-end (--trace 0) or per-layer (--trace 1) metrics.

     ledger.exe verify A.json B.json [--benchmark FILE]
       Check that two records of the same code agree: identical work
       counts, end-to-end metrics within their BENCHMARK.json bounds.

   Shared options: --requests N fixes the number of requests per pass
   (default: the workload's own count, or --seconds of requests);
   --scale small runs every workload on the small profile.

   Requests run at --jobs 1 whatever ADCHECK_JOBS says: a single client
   on one domain is the configuration every record is comparable under,
   and it leaves the second core of a 2-core machine to the rest of the
   system. *)

open Ledger_core

let work_dir = ".ledger"

type opts = {
  workloads : string list;
  seed : int;
  seconds : float option;
  requests : int option;
  trace : bool option;
  scale : Spec.scale option;
  out : string option;
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

let int_arg flag v =
  match int_of_string_opt v with Some n when n >= 0 -> n | _ -> fail "%s needs a whole number, got %S" flag v

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: rest ->
    if Spec.find_workload v = None then
      fail "unknown workload %s (valid: %s)" v
        (String.concat ", " (List.map (fun w -> w.Spec.w_name) Spec.workloads));
    parse { o with workloads = o.workloads @ [ v ] } rest
  | "--seed" :: v :: rest -> parse { o with seed = int_arg "--seed" v } rest
  | "--seconds" :: v :: rest -> (
    match float_of_string_opt v with
    | Some s when s > 0.0 -> parse { o with seconds = Some s } rest
    | _ -> fail "--seconds needs a positive number, got %S" v)
  | "--requests" :: v :: rest -> parse { o with requests = Some (max 1 (int_arg "--requests" v)) } rest
  | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = Some (v = "1") } rest
  | "--scale" :: "small" :: rest -> parse { o with scale = Some Spec.Small } rest
  | "--scale" :: "full" :: rest -> parse { o with scale = Some Spec.Full } rest
  | "--out" :: v :: rest -> parse { o with out = Some v } rest
  | arg :: _ -> fail "unexpected argument %S (see the header of bench/ledger/ledger.ml)" arg

let scale_name = function Spec.Small -> "small" | Spec.Full -> "full"

(* ---- one pass of one workload ------------------------------------------ *)

let run_pass o ~trace =
  let w =
    match o.workloads with
    | [ name ] -> Option.get (Spec.find_workload name)
    | _ -> fail "--trace runs exactly one --workload"
  in
  let scale = Option.value o.scale ~default:w.Spec.w_scale in
  let budget =
    match (o.requests, o.seconds) with
    | Some n, _ -> Run.Requests n
    | None, Some s -> Run.Seconds s
    | None, None -> Run.Requests (if trace then w.Spec.w_traced else w.Spec.w_requests)
  in
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let r = Run.run w ~scale ~seed:o.seed ~budget ~trace ~work_dir in
  Printf.printf "workload %s scale %s seed %d trace %d\n" w.Spec.w_name (scale_name scale) o.seed
    (if trace then 1 else 0);
  List.iter (fun (name, x) -> print_endline (Record.metric_line name x)) r.Record.metrics;
  print_endline (Record.result_line r ~kind:(if trace then Spec.Per_layer else Spec.End_to_end))

(* ---- the one command ------------------------------------------------------ *)

let capture prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close wr; Unix.close devnull) @@ fun () ->
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr devnull
  in
  let ic = Unix.in_channel_of_descr rd in
  let text = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> Some (String.trim text) | _ -> None

let header o =
  let git =
    match capture "git" [ "describe"; "--always"; "--dirty" ] with
    | Some d -> d
    | None | (exception Unix.Unix_error _) -> "unknown"
  in
  [ ("seed", string_of_int o.seed);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Record.str Sys.ocaml_version);
    ("git_describe", Record.str git);
    ("ocamlrunparam", Record.str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
    ("jobs", "1");
    ("requests", match o.requests with Some n -> string_of_int n | None -> Record.str "per workload");
    ("scale", match o.scale with Some s -> Record.str (scale_name s) | None -> Record.str "per workload") ]

let child o (w : Spec.workload) ~trace =
  let args =
    [ "--workload"; w.Spec.w_name; "--seed"; string_of_int o.seed; "--trace"; (if trace then "1" else "0") ]
    @ (match o.requests with Some n -> [ "--requests"; string_of_int n ] | None -> [])
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ match o.scale with Some s -> [ "--scale"; scale_name s ] | None -> []
  in
  Printf.eprintf "ledger: %s, %s pass\n%!" w.Spec.w_name (if trace then "traced" else "untraced");
  let out = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let text = In_channel.input_all out in
  match (Unix.close_process_in out, Record.parse_output text) with
  | Unix.WEXITED 0, Ok r -> r
  | Unix.WEXITED 0, Error e -> fail "%s: %s" w.Spec.w_name e
  | _ -> fail "%s: the %s pass did not finish" w.Spec.w_name (if trace then "traced" else "untraced")

let fmt_value (x : Record.value) =
  (if Float.is_integer x.Record.v then Printf.sprintf "%.0f" x.Record.v
   else Printf.sprintf "%.4g" x.Record.v)
  ^ if x.Record.note = "" then "" else " (" ^ x.Record.note ^ ")"

let print_tables records =
  let e2e = Spec.of_kind Spec.End_to_end @ Spec.of_kind Spec.Extra in
  let label (m : Spec.metric) = Printf.sprintf "%s [%s]" m.Spec.name m.Spec.unit_ in
  let right n = List.init n (fun _ -> Util.Table.Right) in
  let t =
    Util.Table.make ~title:"End to end (untraced pass), one row per workload"
      ~header:("workload" :: List.map label e2e)
      ~aligns:(Util.Table.Left :: right (List.length e2e))
      ()
  in
  let t =
    List.fold_left
      (fun t (r : Record.workload_record) ->
        Util.Table.add_row t
          (r.Record.wr_name
          :: List.map
               (fun (m : Spec.metric) ->
                 match List.assoc_opt m.Spec.name r.Record.wr_untraced.Record.metrics with
                 | Some x -> fmt_value x
                 | None -> "-")
               e2e))
      t records
  in
  Util.Table.print t;
  let layers = Spec.of_kind Spec.Per_layer in
  let t =
    Util.Table.make ~title:"Per layer (traced pass), median over the traced requests"
      ~header:("metric [unit]" :: List.map (fun r -> r.Record.wr_name) records)
      ~aligns:(Util.Table.Left :: right (List.length records))
      ()
  in
  let t =
    List.fold_left
      (fun t (m : Spec.metric) ->
        Util.Table.add_row t
          (label m
          :: List.map
               (fun (r : Record.workload_record) ->
                 match List.assoc_opt m.Spec.name r.Record.wr_traced.Record.metrics with
                 | Some x -> fmt_value x
                 | None -> "-")
               records))
      t layers
  in
  Util.Table.print t

let ledger o =
  let selected =
    match o.workloads with
    | [] -> Spec.workloads
    | names -> List.map (fun n -> Option.get (Spec.find_workload n)) names
  in
  let records =
    List.map
      (fun w ->
        let u = child o w ~trace:false in
        let t = child o w ~trace:true in
        { Record.wr_name = w.Spec.w_name; wr_untraced = u; wr_traced = t })
      selected
  in
  print_tables records;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Record.to_json ~header:(header o) records));
      Printf.printf "record: %s\n" path)
    o.out;
  Printf.printf "chrome traces: %s/<workload>.trace.json\n" work_dir;
  let ok =
    List.for_all
      (fun r -> r.Record.wr_untraced.Record.correct && r.Record.wr_traced.Record.correct)
      records
  in
  if not ok then prerr_endline "ledger: some requests failed";
  exit (if ok then 0 else 1)

(* ---- verify ----------------------------------------------------------------- *)

let verify a b ~benchmark =
  let load p = match Record.load p with Ok r -> r | Error e -> fail "%s" e in
  let bounds = match Record.load_bounds benchmark with Ok b -> b | Error e -> fail "%s" e in
  let rows = Record.verify ~bounds (load a) (load b) in
  let t =
    Util.Table.make ~title:(Printf.sprintf "ledger verify %s %s" a b)
      ~header:[ "workload"; "metric"; "A"; "B"; "verdict"; "rule" ]
      ~aligns:Util.Table.[ Left; Left; Right; Right; Left; Left ]
      ()
  in
  let t =
    List.fold_left
      (fun t r ->
        Util.Table.add_row t
          Record.[ r.r_workload; r.r_metric; r.r_a; r.r_b; (if r.r_ok then "agree" else "DISAGREE"); r.r_why ])
      t rows
  in
  Util.Table.print t;
  let bad = List.length (List.filter (fun r -> not r.Record.r_ok) rows) in
  Printf.printf "%d of %d checks disagree\n" bad (List.length rows);
  exit (if bad = 0 then 0 else 1)

let () =
  Util.Pool.set_default_jobs 1;
  match List.tl (Array.to_list Sys.argv) with
  | "verify" :: a :: b :: rest ->
    let benchmark =
      match rest with
      | [] -> "BENCHMARK.json"
      | [ "--benchmark"; f ] -> f
      | _ -> fail "usage: ledger.exe verify A.json B.json [--benchmark FILE]"
    in
    verify a b ~benchmark
  | args -> (
    let o =
      parse
        { workloads = []; seed = 2019; seconds = None; requests = None; trace = None; scale = None;
          out = None }
        args
    in
    match o.trace with Some trace -> run_pass o ~trace | None -> ledger o)
