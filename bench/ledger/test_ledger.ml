(* Tier-1 checks of the ledger: the request checker can fail a request,
   the catalogue matches BENCHMARK.json, and a one-request run of every
   workload at small scale prints every declared metric with its unit,
   fails nothing, peaks below a cold audit on serve-warm, and passes
   [verify] against itself but not against a record with one work count
   changed.

   Usage: test_ledger.exe LEDGER_EXE BENCHMARK_JSON *)

open Ledger_core
module Json = Benchdiff.Json

let ledger_exe =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let benchmark = Sys.argv.(2)

(* ---- the request checker ---------------------------------------------- *)

let observations holds =
  List.init 14 (fun i ->
      { Iso26262.Observations.number = i + 1; statement = "s"; evidence = "e";
        holds = holds || i <> 6 })

let report = "Paper Table 1: modeling and coding guidelines\n  1a  Pass\n"

let one_byte_off =
  let b = Bytes.of_string report in
  Bytes.set b 30 (if Bytes.get b 30 = 'x' then 'y' else 'x');
  Bytes.to_string b

let passes = function Check.Passed -> true | Check.Failed _ -> false

let test_checker () =
  let oracle = Digest.string report in
  Alcotest.(check bool) "identical report passes" true
    (passes (Check.request ~oracle ~report:(Digest.string report) (observations true)));
  Alcotest.(check bool) "a report one byte off fails" false
    (passes (Check.request ~oracle ~report:(Digest.string one_byte_off) (observations true)));
  Alcotest.(check bool) "an observation that does not hold fails" false
    (passes (Check.request ~oracle ~report:(Digest.string report) (observations false)));
  Alcotest.(check bool) "no oracle: observations decide" false
    (passes (Check.request ~report:(Digest.string report) (observations false)))

(* ---- the catalogue against BENCHMARK.json ------------------------------ *)

let bench_json = lazy (Json.parse (In_channel.with_open_bin benchmark In_channel.input_all))

let declared key =
  match Json.member key (Lazy.force bench_json) with
  | Some (Json.Arr xs) ->
    List.map
      (fun x ->
        match (Json.member "name" x, Json.member "unit" x) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | Some (Json.Str n), None -> (n, "")
        | _ -> Alcotest.failf "%s entry without a name" key)
      xs
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let catalogue kind =
  List.sort compare (List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit_)) (Spec.of_kind kind))

let test_catalogue () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" (catalogue Spec.End_to_end) (List.sort compare (declared "end_to_end"));
  Alcotest.check pairs "per_layer" (catalogue Spec.Per_layer) (List.sort compare (declared "per_layer"));
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Spec.w_name) Spec.workloads)
    (List.map fst (declared "workloads"))

(* ---- smoke run ------------------------------------------------------------ *)

let run_ledger args =
  let ic = Unix.open_process_args_in ledger_exe (Array.of_list (ledger_exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, out)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let record = "smoke.ledger.json"

let test_smoke () =
  let ok, out =
    run_ledger
      [ "--seed"; "2019"; "--scale"; "small"; "--requests"; "1"; "--out"; record ]
  in
  Alcotest.(check bool) "ledger exits 0" true ok;
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) (Printf.sprintf "prints %s [%s]" name unit_) true
        (contains out (Printf.sprintf "%s [%s]" name unit_)))
    (declared "end_to_end" @ declared "per_layer");
  match Record.load record with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "four workloads" 4 (List.length r.Record.l_workloads);
    List.iter
      (fun (name, (correct, failed, metrics)) ->
        Alcotest.(check bool) (name ^ " correct") true correct;
        Alcotest.(check int) (name ^ " failed") 0 failed;
        Alcotest.(check (float 0.0)) (name ^ " failed_frac") 0.0 (List.assoc "failed_frac" metrics))
      r.Record.l_workloads;
    (* The store fill runs outside the workload process, so a warm
       request's peak RSS is its own, below that of a cold audit. *)
    let peak name =
      let _, _, metrics = List.assoc name r.Record.l_workloads in
      List.assoc "peak_rss_mb" metrics
    in
    Alcotest.(check bool) "serve-warm peaks below audit-small-cold" true
      (peak "serve-warm" < peak "audit-small-cold")

let test_verify () =
  let verify b = fst (run_ledger [ "verify"; record; b; "--benchmark"; benchmark ]) in
  Alcotest.(check bool) "a record agrees with itself" true (verify record);
  let text = In_channel.with_open_bin record In_channel.input_all in
  let key = "\"misra.violations\": {\"value\": " in
  let i =
    let rec find i = if String.sub text i (String.length key) = key then i else find (i + 1) in
    find 0 + String.length key
  in
  let changed = "changed.ledger.json" in
  Out_channel.with_open_bin changed (fun oc ->
      output_string oc (String.sub text 0 i ^ "1" ^ String.sub text i (String.length text - i)));
  Alcotest.(check bool) "a changed work count disagrees" false (verify changed)

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "ledger"
    [ ("checker", [ Alcotest.test_case "failed requests" `Quick test_checker ]);
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
      ( "smoke",
        [ Alcotest.test_case "every workload, one request" `Slow test_smoke;
          Alcotest.test_case "verify" `Slow test_verify ] ) ]
