(* Provenance journal test suite: content-derived id stability, the
   collect/record buffering discipline, canonical export order and
   dedup, id/prefix lookup, the adcheck-evidence/1 JSONL exporter,
   explain rendering with source excerpts, first-covering-scenario
   attribution in the coverage collector, the audit round-trip (every
   journal finding resolves by id to a non-empty witness chain), the
   cross-jobs journal differential (byte-identical at jobs 1/2/8 under
   the tick clock), and the CLI's unwritable-output failure mode. *)

module P = Provenance

let loc file line col = Cfront.Loc.make ~file ~line ~col

let mk ?loc ~kind ~analysis msg =
  P.make ~kind ~analysis ?loc ~message:msg
    ~witness:[ P.step "site" "%s" msg ] ()

(* ------------------------------------------------------------------ *)
(* Finding ids                                                         *)
(* ------------------------------------------------------------------ *)

let test_id_stable () =
  let a = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  let b = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  Alcotest.(check string) "equal content -> equal id" a.P.f_id b.P.f_id;
  Alcotest.(check bool) "id has the F- prefix" true
    (String.length a.P.f_id = 18 && String.sub a.P.f_id 0 2 = "F-");
  String.iter
    (fun c ->
      if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
        Alcotest.failf "non-hex digit %c in %s" c a.P.f_id)
    (String.sub a.P.f_id 2 16)

let test_id_content_sensitive () =
  let base = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  let variants =
    [ mk ~kind:"dataflow" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion";
      mk ~kind:"misra" ~analysis:"9.1" ~loc:(loc "a.c" 3 1) "recursion";
      mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 2) "recursion";
      mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion!";
      mk ~kind:"misra" ~analysis:"17.2" "recursion";
      P.make ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1)
        ~message:"recursion"
        ~witness:[ P.step "site" "recursion"; P.step "extra" "step" ] () ]
  in
  List.iter
    (fun v ->
      if v.P.f_id = base.P.f_id then
        Alcotest.failf "variant %s/%s collided with base id" v.P.f_kind
          v.P.f_analysis)
    variants

(* Ids pinned as literals.  They were computed by the first
   implementation, which built the whole serialization in a buffer and
   hashed it byte by byte; the streamed hash must reproduce them. *)
let test_id_pinned () =
  let cases =
    [ ( "no location",
        "F-ff22b9f98de64e19",
        P.make ~kind:"metric" ~analysis:"T1.1" ~message:"enforcement"
          ~witness:[ P.step "threshold" "cc > %d" 10 ] () );
      ( "several witness steps",
        "F-a255191bb8fd408a",
        P.make ~kind:"dataflow" ~analysis:"uninit-read" ~loc:(loc "u.c" 2 9)
          ~message:"x read before initialization"
          ~witness:
            [ P.step ~loc:(loc "u.c" 1 5) "decl" "x declared without initializer";
              P.step "cfg" "path B0 -> B2 skips the store";
              P.step ~loc:(loc "u.c" 2 9) "use" "x read here" ]
          () );
      ( "empty message",
        "F-ea3773ac5728c905",
        P.make ~kind:"misra" ~analysis:"15.5" ~loc:(loc "a.c" 10 2) ~message:""
          ~witness:[ P.step "site" "" ] () );
      ( "bytes >= 0x80",
        "F-6500d33b8b84535a",
        P.make ~kind:"coverage" ~analysis:"coverage-gap"
          ~loc:(loc "m\xc3\xbcnchen.cu" 9 10) ~message:"caf\xc3\xa9 \xff\x80 branch"
          ~witness:[ P.step ~loc:(loc "m\xc3\xbcnchen.cu" 9 10) "scenario" "\xfe\xfd" ]
          () );
      ( "separator bytes inside fields",
        "F-dd980885a70096fa",
        P.make ~kind:"interproc" ~analysis:"recursion\x00cycle" ~loc:(loc "b\x01.c" 1 1)
          ~message:"a\x00b\x01c"
          ~witness:[ P.step "call\x01" "f\x00g"; P.step ~loc:(loc "c.c" 0 0) "" "\x01\x00" ]
          () );
      ( "empty witness",
        "F-0b3b177a1ff0c714",
        P.make ~kind:"misra" ~analysis:"17.2" ~message:"recursion" ~witness:[] () ) ]
  in
  List.iter (fun (what, id, f) -> Alcotest.(check string) what id f.P.f_id) cases

(* ------------------------------------------------------------------ *)
(* Differential: the streamed hash, in-place sort and buffered export *)
(* against the straightforward versions they replaced                 *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  let fnv1a64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    !h

  let loc_key = function None -> "-" | Some l -> Cfront.Loc.to_string l

  let canonical_content (f : P.finding) =
    let buf = Buffer.create 256 in
    Buffer.add_string buf f.P.f_kind;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf f.P.f_analysis;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (loc_key f.P.f_loc);
    Buffer.add_char buf '\x00';
    Buffer.add_string buf f.P.f_message;
    List.iter
      (fun s ->
        Buffer.add_char buf '\x00';
        Buffer.add_string buf s.P.w_label;
        Buffer.add_char buf '\x01';
        Buffer.add_string buf (loc_key s.P.w_loc);
        Buffer.add_char buf '\x01';
        Buffer.add_string buf s.P.w_detail)
      f.P.f_witness;
    Buffer.contents buf

  let id f = Printf.sprintf "F-%016Lx" (fnv1a64 (canonical_content f))

  (* polymorphic compare on the tuple key, stable sort, first id wins *)
  let findings recorded =
    let key (f : P.finding) =
      (f.P.f_kind, f.P.f_analysis, loc_key f.P.f_loc, f.P.f_message, f.P.f_id)
    in
    let sorted = List.sort (fun a b -> compare (key a) (key b)) recorded in
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (f : P.finding) ->
        if Hashtbl.mem seen f.P.f_id then false
        else begin
          Hashtbl.add seen f.P.f_id ();
          true
        end)
      sorted

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

  let loc_json = function
    | None -> "null"
    | Some l -> Printf.sprintf "\"%s\"" (json_escape (Cfront.Loc.to_string l))

  let finding_json (f : P.finding) =
    Printf.sprintf
      "{\"id\":\"%s\",\"kind\":\"%s\",\"analysis\":\"%s\",\"loc\":%s,\"message\":\"%s\",\"witness\":[%s]}"
      (json_escape f.P.f_id) (json_escape f.P.f_kind) (json_escape f.P.f_analysis)
      (loc_json f.P.f_loc) (json_escape f.P.f_message)
      (String.concat ","
         (List.map
            (fun s ->
              Printf.sprintf "{\"label\":\"%s\",\"loc\":%s,\"detail\":\"%s\"}"
                (json_escape s.P.w_label) (loc_json s.P.w_loc) (json_escape s.P.w_detail))
            f.P.f_witness))

  let journal fs =
    Printf.sprintf "{\"schema\":\"adcheck-evidence/1\",\"findings\":%d}\n" (List.length fs)
    ^ String.concat "" (List.map (fun f -> finding_json f ^ "\n") fs)
end

(* Findings drawn from small pools, so equal keys and duplicates are
   common.  Locations include pairs whose string order differs from
   their numeric order (line 9 vs 10, col 2 vs 10) and a file name that
   is a prefix of another ("a.c" vs "a.c.x"); text includes bytes the
   exporter escapes, the serialization's separators and bytes >= 0x80. *)
let gen_findings =
  let open QCheck.Gen in
  let text =
    oneof
      [ oneofl [ ""; "x"; "recursion"; "x read here" ];
        string_size ~gen:(oneofl [ 'a'; 'z'; ' '; ':'; '"'; '\\'; '\n'; '\t'; '\x00';
                                   '\x01'; '\x1f'; '\x7f'; '\xc3'; '\xff' ])
          (int_range 0 5) ]
  in
  let gen_loc =
    opt
      (map3
         (fun file line col -> loc file line col)
         (oneofl [ "a.c"; "a.c.x"; "b.c"; "q\"\\.c"; "m\xc3\xbc.c" ])
         (oneofl [ 1; 2; 9; 10; 100 ])
         (oneofl [ 0; 2; 10 ]))
  in
  let gen_step =
    map3
      (fun label loc detail -> { P.w_label = label; w_loc = loc; w_detail = detail })
      (oneofl [ "site"; "rule"; "use"; "" ]) gen_loc text
  in
  let gen_spec =
    map3
      (fun (kind, analysis) (loc, message) witness -> (kind, analysis, loc, message, witness))
      (pair (oneofl [ "misra"; "dataflow"; "coverage" ]) (oneofl [ "9.1"; "10.3"; "17.2"; "dead-store" ]))
      (pair gen_loc text)
      (list_size (int_range 0 3) gen_step)
  in
  let make (kind, analysis, loc, message, witness) =
    P.make ~kind ~analysis ?loc ~message ~witness ()
  in
  (* duplicates are made again from the same content, so they are equal
     but not the same record: the export must keep the first recorded *)
  let* specs = list_size (int_range 0 30) gen_spec in
  let* again = if specs = [] then return [] else list_size (int_range 0 10) (oneofl specs) in
  map (List.map make) (shuffle_l (specs @ again))

let prop_journal_matches_oracle =
  QCheck.Test.make ~name:"ids, order, dedup and export match the oracles" ~count:300
    (QCheck.make ~print:(fun fs -> Oracle.journal fs) gen_findings)
    (fun fs ->
      List.iter
        (fun f ->
          let want = Oracle.id f in
          if f.P.f_id <> want then
            QCheck.Test.fail_reportf "id %s, oracle %s for %s" f.P.f_id want
              (Oracle.finding_json f))
        fs;
      P.reset ();
      List.iter P.record fs;
      let got = P.findings () and want = Oracle.findings fs in
      let journal = P.journal () in
      P.reset ();
      if List.length got <> List.length want || not (List.for_all2 ( == ) got want) then
        QCheck.Test.fail_reportf "export order differs:\n%s\noracle:\n%s" (Oracle.journal got)
          (Oracle.journal want);
      if journal <> Oracle.journal want then
        QCheck.Test.fail_reportf "journal bytes differ:\n%s" journal;
      true)

(* [compare_loc] must order locations exactly as [String.compare]
   orders their strings.  File names come from bytes on both sides of
   ':' ('.', '/', '-', digits, ';', '~'), ':' itself and bytes >= 0x80,
   and the second name is often a prefix or an extension of the first.
   Lines and columns mix the digit-length boundaries (9/10, 99/100),
   0, large values and a rare negative one. *)
let gen_loc_pair =
  let open QCheck.Gen in
  let byte = oneofl [ 'a'; 'c'; '.'; '/'; '-'; '0'; '9'; ':'; ';'; '~'; '\x80'; '\xff' ] in
  let name = string_size ~gen:byte (int_range 0 4) in
  let related a =
    oneof
      [ return a;
        map (fun s -> a ^ s) name;
        map (fun k -> String.sub a 0 (min k (String.length a))) (int_range 0 4);
        name ]
  in
  let num =
    oneof
      [ oneofl [ 0; 1; 9; 10; 11; 99; 100; 101; 12345; max_int; -1 ];
        int_range 0 1_000_000 ]
  in
  let* fa = name in
  let* fb = related fa in
  let* la = num and* ca = num in
  let* lb = oneof [ return la; num ] and* cb = oneof [ return ca; num ] in
  return (loc fa la ca, loc fb lb cb)

let prop_compare_loc =
  QCheck.Test.make ~name:"compare_loc orders as String.compare of to_string" ~count:3000
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%S vs %S" (Cfront.Loc.to_string a) (Cfront.Loc.to_string b))
       gen_loc_pair)
    (fun (a, b) ->
      let sign c = compare c 0 in
      sign (P.compare_loc a b)
      = sign (String.compare (Cfront.Loc.to_string a) (Cfront.Loc.to_string b)))

(* ------------------------------------------------------------------ *)
(* Sink: collect / record / dedup / canonical order                    *)
(* ------------------------------------------------------------------ *)

let test_collect_absorb () =
  P.reset ();
  let f1 = mk ~kind:"misra" ~analysis:"9.1" "global one" in
  let f2 = mk ~kind:"dataflow" ~analysis:"dead-store" "buffered two" in
  P.record f1;
  let (), collected = P.collect (fun () -> P.record f2) in
  Alcotest.(check (list string)) "collect captures the buffered finding"
    [ f2.P.f_id ]
    (List.map (fun f -> f.P.f_id) collected);
  Alcotest.(check (list string)) "buffered finding not yet global"
    [ f1.P.f_id ]
    (List.map (fun f -> f.P.f_id) (P.findings ()));
  List.iter P.record collected;
  Alcotest.(check int) "recording the collected finding lands it" 2
    (List.length (P.findings ()));
  (* recording identical content again is invisible in the export *)
  P.record f1;
  P.record f2;
  Alcotest.(check int) "dedup by id" 2 (List.length (P.findings ()));
  P.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (P.findings ()))

let test_canonical_order () =
  P.reset ();
  (* record deliberately out of canonical order *)
  let fs =
    [ mk ~kind:"misra" ~analysis:"17.2" "z last";
      mk ~kind:"coverage" ~analysis:"uncovered-function" "m middle";
      mk ~kind:"coverage" ~analysis:"coverage-gap" "a first" ]
  in
  List.iter P.record fs;
  let keys =
    List.map (fun f -> (f.P.f_kind, f.P.f_analysis)) (P.findings ())
  in
  Alcotest.(check (list (pair string string)))
    "export sorted by (kind, analysis)"
    [ ("coverage", "coverage-gap"); ("coverage", "uncovered-function");
      ("misra", "17.2") ]
    keys;
  P.reset ()

(* The per-kind counter is named and bumped only while the recorder is
   on; the count with it on is one per finding that reaches the
   journal.  A finding recorded into a [collect] buffer counts nothing
   until it is recorded again outside it, so it counts once, even
   through nested buffers. *)
let test_record_counter () =
  P.reset ();
  Telemetry.reset ();
  let f = mk ~kind:"misra" ~analysis:"9.1" "counted" in
  P.record f;
  Alcotest.(check int) "recorder off: no counter" 0
    (Telemetry.counter "provenance.findings.misra");
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false; Telemetry.reset ())
  @@ fun () ->
  P.record f;
  P.record (mk ~kind:"coverage" ~analysis:"coverage-gap" "counted");
  Alcotest.(check int) "recorder on: one per finding" 1
    (Telemetry.counter "provenance.findings.misra");
  Alcotest.(check int) "per kind" 1 (Telemetry.counter "provenance.findings.coverage");
  let (), outer =
    P.collect (fun () ->
        let (), inner = P.collect (fun () -> P.record (mk ~kind:"dataflow" ~analysis:"x" "c")) in
        List.iter P.record inner)
  in
  Alcotest.(check int) "a buffered finding counts nothing" 0
    (Telemetry.counter "provenance.findings.dataflow");
  List.iter P.record outer;
  Alcotest.(check int) "it counts once on reaching the journal" 1
    (Telemetry.counter "provenance.findings.dataflow");
  P.reset ()

(* A location against none ("-" in the sort key): names that start
   with bytes below, at and above '-', and the empty name, whose string
   starts with ':'. *)
let test_location_order_edges () =
  P.reset ();
  let fs =
    List.map
      (fun l -> mk ?loc:l ~kind:"misra" ~analysis:"9.1" "same")
      [ Some (loc "b.c" 1 1); None; Some (loc "-" 1 1); Some (loc "-x.c" 2 3);
        Some (loc "," 1 1); Some (loc "" 1 1); Some (loc "." 9 9);
        Some (loc "a.c" 10 1); Some (loc "a.c" 9 1); Some (loc "a.c.x" 1 1) ]
  in
  List.iter P.record fs;
  Alcotest.(check (list string)) "export order = oracle order"
    (List.map (fun f -> f.P.f_id) (Oracle.findings fs))
    (List.map (fun f -> f.P.f_id) (P.findings ()));
  P.reset ()

(* The first export sorts the sink in place; the next one, with nothing
   recorded since, returns the same findings ("export allocation per
   finding" shows that it sorts nothing), and a later record lands in
   canonical position on the export after it. *)
let test_export_once () =
  P.reset ();
  let early = mk ~kind:"misra" ~analysis:"9.1" ~loc:(loc "b.c" 9 1) "late key" in
  let fs =
    [ early;
      mk ~kind:"dataflow" ~analysis:"dead-store" ~loc:(loc "a.c" 10 2) "x";
      mk ~kind:"coverage" ~analysis:"coverage-gap" "gap";
      mk ~kind:"misra" ~analysis:"9.1" ~loc:(loc "a.c" 1 1) "first key" ]
  in
  List.iter P.record fs;
  let first = P.findings () in
  let second = P.findings () in
  Alcotest.(check bool) "second export: the same physical findings" true
    (List.length first = List.length second && List.for_all2 ( == ) first second);
  Alcotest.(check string) "journal of the canonical sink"
    (Oracle.journal (Oracle.findings fs)) (P.journal ());
  let extra = mk ~kind:"misra" ~analysis:"10.3" ~loc:(loc "a.c" 2 1) "between" in
  let dup = mk ~kind:"misra" ~analysis:"9.1" ~loc:(loc "b.c" 9 1) "late key" in
  P.record extra;
  P.record dup;
  let last = P.findings () in
  let want = Oracle.findings (fs @ [ extra; dup ]) in
  Alcotest.(check bool) "record after export: canonical, first recorded kept" true
    (List.length last = List.length want && List.for_all2 ( == ) last want);
  Alcotest.(check bool) "the duplicate recorded later is dropped" true
    (List.memq early last && not (List.memq dup last));
  P.reset ()

let test_find () =
  P.reset ();
  let f = mk ~kind:"interproc" ~analysis:"recursion-cycle" "a -> b -> a" in
  P.record f;
  (match P.find f.P.f_id with
   | Ok g -> Alcotest.(check string) "exact id" f.P.f_id g.P.f_id
   | Error e -> Alcotest.failf "exact lookup failed: %s" e);
  (match P.find (String.sub f.P.f_id 0 8) with
   | Ok g -> Alcotest.(check string) "unique prefix" f.P.f_id g.P.f_id
   | Error e -> Alcotest.failf "prefix lookup failed: %s" e);
  (match P.find "F-" with
   | Error e ->
     Alcotest.(check bool) "short prefix explains the minimum" true
       (String.length e > 0
        && String.sub e 0 (String.length "unknown") = "unknown")
   | Ok _ -> Alcotest.fail "2-char prefix must not resolve");
  (match P.find "F-0000000000000000" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown id must not resolve");
  P.reset ()

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1 exporter                                         *)
(* ------------------------------------------------------------------ *)

let parse_json what s =
  match Benchdiff.Json.parse s with
  | j -> j
  | exception Benchdiff.Json.Parse_error msg ->
    Alcotest.failf "%s is not valid JSON: %s" what msg

let test_journal_format () =
  P.reset ();
  let f1 =
    P.make ~kind:"misra" ~analysis:"9.1" ~loc:(loc "hostile \"file\".c" 2 5)
      ~message:"he said \"hi\"\n\ttab"
      ~witness:[ P.step ~loc:(loc "hostile \"file\".c" 1 1) "decl" "x\\y" ] ()
  in
  let f2 = mk ~kind:"metric" ~analysis:"T1.1" "enforcement" in
  P.record f1;
  P.record f2;
  let j = P.journal () in
  (match String.split_on_char '\n' j with
   | header :: lines ->
     let h = parse_json "journal header" header in
     (match Benchdiff.Json.member "schema" h with
      | Some (Benchdiff.Json.Str s) ->
        Alcotest.(check string) "schema" "adcheck-evidence/1" s
      | _ -> Alcotest.fail "header has no schema");
     (match Benchdiff.Json.member "findings" h with
      | Some (Benchdiff.Json.Num n) ->
        Alcotest.(check int) "header count" 2 (int_of_float n)
      | _ -> Alcotest.fail "header has no findings count");
     let body = List.filter (fun l -> l <> "") lines in
     Alcotest.(check int) "one line per finding" 2 (List.length body);
     List.iter
       (fun line ->
         let o = parse_json "finding line" line in
         List.iter
           (fun field ->
             if Benchdiff.Json.member field o = None then
               Alcotest.failf "finding line lacks %S: %s" field line)
           [ "id"; "kind"; "analysis"; "loc"; "message"; "witness" ])
       body
   | [] -> Alcotest.fail "empty journal");
  (* write_journal round-trips the same bytes *)
  let path = Filename.temp_file "adcheck-ev" ".jsonl" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  P.write_journal ~path ();
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "file contents = journal ()" j contents;
  (* an unwritable path raises Sys_error, which the CLI turns into the
     one-line error + exit 1 (covered by the spawn test below) *)
  (match P.write_journal ~path:"/nonexistent-adcheck-dir/ev.jsonl" () with
   | () -> Alcotest.fail "expected Sys_error"
   | exception Sys_error _ -> ());
  P.reset ()

let test_explain_excerpt () =
  let src = "int x;\nint y = x + 1;\n" in
  let f =
    P.make ~kind:"dataflow" ~analysis:"uninit-read" ~loc:(loc "u.c" 2 9)
      ~message:"x read before initialization"
      ~witness:
        [ P.step ~loc:(loc "u.c" 1 5) "decl" "x declared without initializer";
          P.step ~loc:(loc "u.c" 2 9) "use" "x read here" ]
      ()
  in
  let source file = if file = "u.c" then Some src else None in
  let text = P.explain ~source f in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    if not (go 0) then
      Alcotest.failf "explain output lacks %S:\n%s" needle text
  in
  contains f.P.f_id;
  contains "x read before initialization";
  contains "[decl]";
  contains "[use]";
  contains "u.c:2:9";
  (* the source excerpt with line number and caret *)
  contains "   2 | int y = x + 1;";
  contains "^"

(* ------------------------------------------------------------------ *)
(* First-covering-scenario attribution (coverage collector)            *)
(* ------------------------------------------------------------------ *)

let test_attribution_first_wins () =
  let col = Coverage.Collector.create ~origin:"sc-a" () in
  let hooks = Coverage.Collector.hooks col in
  hooks.Coverage.Runtime.on_stmt 7;
  hooks.Coverage.Runtime.on_stmt 7;
  Alcotest.(check (option string)) "stmt attributed to the origin"
    (Some "sc-a")
    (Coverage.Collector.first_covering_stmt col 7);
  Alcotest.(check (option string)) "unseen stmt unattributed" None
    (Coverage.Collector.first_covering_stmt col 8);
  hooks.Coverage.Runtime.on_decision 3 [] true;
  Alcotest.(check (option string)) "decision outcome attributed"
    (Some "sc-a")
    (Coverage.Collector.first_covering_decision col 3 true);
  Alcotest.(check (option string)) "other outcome unattributed" None
    (Coverage.Collector.first_covering_decision col 3 false);
  (* unnamed collectors never attribute — the pre-existing behavior *)
  let anon = Coverage.Collector.create () in
  let ah = Coverage.Collector.hooks anon in
  ah.Coverage.Runtime.on_stmt 7;
  Alcotest.(check (option string)) "anonymous collector stays empty" None
    (Coverage.Collector.first_covering_stmt anon 7)

let test_attribution_merge_least () =
  let make_col origin sids =
    let col = Coverage.Collector.create ~origin () in
    let hooks = Coverage.Collector.hooks col in
    List.iter hooks.Coverage.Runtime.on_stmt sids;
    col
  in
  let a = make_col "beta" [ 1; 2 ] in
  let b = make_col "alpha" [ 1; 3 ] in
  let ab = Coverage.Collector.merge [ a; b ] in
  let ba = Coverage.Collector.merge [ b; a ] in
  Alcotest.(check string) "merge order invisible in the fingerprint"
    (Coverage.Collector.fingerprint ab)
    (Coverage.Collector.fingerprint ba);
  Alcotest.(check (option string)) "least scenario name wins" (Some "alpha")
    (Coverage.Collector.first_covering_stmt ab 1);
  Alcotest.(check (option string)) "sole coverer kept" (Some "beta")
    (Coverage.Collector.first_covering_stmt ab 2);
  Alcotest.(check (option string)) "sole coverer kept (other side)"
    (Some "alpha")
    (Coverage.Collector.first_covering_stmt ab 3);
  (* attribution is part of the observational state: same hits under a
     different origin must change the fingerprint *)
  let c = make_col "gamma" [ 1; 2 ] in
  Alcotest.(check bool) "origin visible in the fingerprint" true
    (Coverage.Collector.fingerprint a <> Coverage.Collector.fingerprint c)

(* ------------------------------------------------------------------ *)
(* Audit round-trip and the cross-jobs journal differential            *)
(* ------------------------------------------------------------------ *)

let restore_jobs = Util.Pool.default_jobs ()

(* The full audit pipeline at [jobs] workers under the tick clock; the
   journal string is the byte-level object under test, the audit record
   feeds the round-trip checks. *)
let audit_at ~jobs =
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
  let audit =
    Iso26262.Audit.run ~seed:2019 ~specs:Corpus.Apollo_profile.small ()
  in
  (P.journal (), audit)

let oracle = lazy (audit_at ~jobs:1)

let test_audit_round_trip () =
  let journal_str, audit = Lazy.force oracle in
  let fs = audit.Iso26262.Audit.journal in
  Alcotest.(check bool) "journal nonempty" true (fs <> []);
  (* every finding id resolves and carries a non-empty witness chain *)
  let ids = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      if Hashtbl.mem ids f.P.f_id then
        Alcotest.failf "duplicate id %s in the journal" f.P.f_id;
      Hashtbl.add ids f.P.f_id ();
      if f.P.f_witness = [] then
        Alcotest.failf "finding %s (%s/%s) has an empty witness chain"
          f.P.f_id f.P.f_kind f.P.f_analysis)
    fs;
  (* all five producer domains journaled something *)
  List.iter
    (fun kind ->
      if not (List.exists (fun f -> f.P.f_kind = kind) fs) then
        Alcotest.failf "no %s findings in the audit journal" kind)
    [ "misra"; "dataflow"; "interproc"; "coverage"; "metric" ];
  (* id lookup round-trips (sampled: find is a linear scan), and the
     explain rendering carries the witness chain *)
  let sample =
    List.filteri (fun i _ -> i mod (max 1 (List.length fs / 25)) = 0) fs
  in
  List.iter
    (fun f ->
      match P.find f.P.f_id with
      | Ok g ->
        Alcotest.(check string) "find returns the same finding" f.P.f_id
          g.P.f_id;
        let text = P.explain g in
        if String.length text = 0 || g.P.f_witness = [] then
          Alcotest.failf "explain %s rendered no witness chain" f.P.f_id
      | Error e -> Alcotest.failf "find %s failed: %s" f.P.f_id e)
    sample;
  (* the exported journal agrees with the audit's captured journal *)
  let h = parse_json "journal header"
      (List.hd (String.split_on_char '\n' journal_str))
  in
  (match Benchdiff.Json.member "findings" h with
   | Some (Benchdiff.Json.Num n) ->
     Alcotest.(check int) "header count = captured journal size"
       (List.length fs) (int_of_float n)
   | _ -> Alcotest.fail "journal header lacks findings count");
  (* the rendered audit surfaces the new columns, and the tool-evidence
     matrix links only ids that exist in the journal *)
  let rendered = Iso26262.Audit.render audit in
  let contains needle hay =
    let n = String.length needle and hl = String.length hay in
    let rec go i = i + n <= hl && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "coverage report has the attribution column" true
    (contains "first covered by" rendered);
  Alcotest.(check bool) "tool-evidence matrix has the finding-ids column" true
    (contains "finding ids" rendered);
  let matrix =
    Iso26262.Traceability.tool_evidence_matrix ~journal:fs
      ~observations:audit.Iso26262.Audit.observations
      audit.Iso26262.Audit.metrics
  in
  (* Each row keeps its first three ids and a count.  The oracle filters
     the journal directly with the row's (kind, analysis prefix)
     selectors, written out here independently of the library's. *)
  let selectors (r : Iso26262.Traceability.tool_evidence) =
    match r.Iso26262.Traceability.te_analysis with
    | "callgraph + interproc SCC condensation" ->
      [ ("interproc", "recursion-cycle"); ("misra", "17.2") ]
    | "interproc bottom-up stack bound" -> [ ("interproc", "unbounded-depth") ]
    | "interproc global coupling matrix" -> [ ("metric", "T3.") ]
    | "interproc definite assignment (IP-1)" ->
      [ ("interproc", "cross-call-uninit"); ("misra", "IP-1") ]
    | "callgraph resolution accounting" -> []
    | row -> (
      match Scanf.sscanf_opt row "observation %d%!" Fun.id with
      | Some 1 -> [ ("metric", "T1.1") ]
      | Some 2 -> [ ("misra", ""); ("dataflow", "") ]
      | Some (3 | 4) -> [ ("misra", "CUDA-") ]
      | Some 5 -> [ ("metric", "T1.3") ]
      | Some 6 -> [ ("metric", "T1.4") ]
      | Some 7 -> [ ("metric", "T8.5") ]
      | Some 8 -> [ ("metric", "T1.7") ]
      | Some 9 -> [ ("metric", "T1.8") ]
      | Some (10 | 11) -> [ ("coverage", "") ]
      | Some 13 -> [ ("metric", "T3.") ]
      | Some 14 -> [ ("metric", "T8."); ("interproc", "") ]
      | Some _ -> []
      | None -> Alcotest.failf "unexpected matrix row %S" row)
  in
  let linked = ref 0 in
  List.iter
    (fun (r : Iso26262.Traceability.tool_evidence) ->
      let sel = selectors r in
      let want =
        List.filter
          (fun f ->
            List.exists
              (fun (kind, prefix) ->
                f.P.f_kind = kind && String.starts_with ~prefix f.P.f_analysis)
              sel)
          fs
      in
      let what = r.Iso26262.Traceability.te_analysis in
      Alcotest.(check int) (what ^ ": count = direct filter") (List.length want)
        r.Iso26262.Traceability.te_count;
      Alcotest.(check (list string)) (what ^ ": first three ids shown")
        (List.filteri (fun i _ -> i < 3) (List.map (fun f -> f.P.f_id) want))
        r.Iso26262.Traceability.te_shown;
      List.iter
        (fun id ->
          if not (Hashtbl.mem ids id) then
            Alcotest.failf "matrix links %s, absent from the journal" id)
        r.Iso26262.Traceability.te_shown;
      linked := !linked + r.Iso26262.Traceability.te_count)
    matrix;
  Alcotest.(check bool) "matrix links at least one finding" true (!linked > 0)

(* Words allocated by [f ()]: minor-heap words plus words allocated
   directly in the major heap (major words minus promoted ones).  The
   minor count is [Gc.minor_words], not the first component of
   [Gc.counters]: on OCaml 5.1 that one undercounts the words still in
   the minor heap. *)
let allocated_words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let v = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (v, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* The export's allocation, per finding: the output list is 3 words,
   the sorted copy of the sink 1, the merge buffer 1/2, and the
   closures [Array.stable_sort] makes per merge about 2 more (6.8 in
   all on OCaml 5.1), so the budget of 8 leaves no room for per-finding
   keys: a sort over keyed copies (a location string per finding, a key
   record, list cells, a table of seen ids) spends several times that.
   A second export sorts nothing and allocates only its list. *)
let test_export_allocation () =
  let _, audit = Lazy.force oracle in
  let journal = Array.of_list audit.Iso26262.Audit.journal in
  let n = Array.length journal in
  Alcotest.(check int) "the small seed-2019 journal" 10_585 n;
  (* recorded in a seeded shuffle, so the export has real sorting to do *)
  let rng = Random.State.make [| 2019 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = journal.(i) in
    journal.(i) <- journal.(j);
    journal.(j) <- t
  done;
  P.reset ();
  Array.iter P.record journal;
  let first, first_words = allocated_words P.findings in
  let _, second_words = allocated_words P.findings in
  P.reset ();
  Alcotest.(check bool) "export = the audit's journal" true
    (List.length first = n && List.for_all2 ( == ) first audit.Iso26262.Audit.journal);
  let per_finding w = w /. float_of_int n in
  if per_finding first_words > 8. then
    Alcotest.failf "first export allocated %.0f words, %.2f per finding (budget 8)"
      first_words (per_finding first_words);
  if second_words > float_of_int (3 * n + 256) then
    Alcotest.failf "second export allocated %.0f words, %.2f per finding (the list is 3)"
      second_words (per_finding second_words)

let check_journal_identical ~jobs =
  let oracle_journal, _ = Lazy.force oracle in
  let journal, _ = audit_at ~jobs in
  Alcotest.(check string)
    (Printf.sprintf "evidence journal byte-identical at jobs=%d" jobs)
    oracle_journal journal

let test_journal_jobs2 () = check_journal_identical ~jobs:2
let test_journal_jobs8 () = check_journal_identical ~jobs:8

(* ------------------------------------------------------------------ *)
(* CLI unwritable-output policy (spawns the real binary)               *)
(* ------------------------------------------------------------------ *)

let adcheck_exe = Fixture.adcheck_exe

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_unwritable ~flag ~what =
  let err = Filename.temp_file "adcheck-err" ".txt" in
  at_exit (fun () -> try Sys.remove err with Sys_error _ -> ());
  let cmd =
    Printf.sprintf "%s misra --scale small --seed 7 %s %s >/dev/null 2>%s"
      (Filename.quote adcheck_exe) flag
      (Filename.quote "/nonexistent-adcheck-dir/out")
      (Filename.quote err)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) (Printf.sprintf "%s: exit code" flag) 1 rc;
  let stderr = read_file err in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' stderr)
  in
  Alcotest.(check int) (Printf.sprintf "%s: one-line error" flag) 1
    (List.length lines);
  let line = List.hd lines in
  let prefix = Printf.sprintf "adcheck: cannot write %s:" what in
  Alcotest.(check bool)
    (Printf.sprintf "%s: error names the artifact (%S)" flag line)
    true
    (String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix)

let test_unwritable_evidence () = check_unwritable ~flag:"--evidence" ~what:"evidence journal"
let test_unwritable_metrics () = check_unwritable ~flag:"--metrics" ~what:"metrics"

let () =
  Alcotest.run "provenance"
    [
      ( "finding-ids",
        [
          Alcotest.test_case "equal content, equal id" `Quick test_id_stable;
          Alcotest.test_case "content-sensitive" `Quick
            test_id_content_sensitive;
          Alcotest.test_case "pinned ids" `Quick test_id_pinned;
          QCheck_alcotest.to_alcotest prop_journal_matches_oracle;
          QCheck_alcotest.to_alcotest prop_compare_loc;
        ] );
      ( "sink",
        [
          Alcotest.test_case "collect/absorb/dedup" `Quick test_collect_absorb;
          Alcotest.test_case "canonical export order" `Quick
            test_canonical_order;
          Alcotest.test_case "find by id and prefix" `Quick test_find;
          Alcotest.test_case "location order edges" `Quick
            test_location_order_edges;
          Alcotest.test_case "export sorts once" `Quick test_export_once;
          Alcotest.test_case "per-kind counter" `Quick test_record_counter;
        ] );
      ( "export",
        [
          Alcotest.test_case "adcheck-evidence/1 shape" `Quick
            test_journal_format;
          Alcotest.test_case "explain renders the why-chain" `Quick
            test_explain_excerpt;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "first covering scenario wins" `Quick
            test_attribution_first_wins;
          Alcotest.test_case "merge keeps the least name" `Quick
            test_attribution_merge_least;
        ] );
      ( "audit",
        [
          Alcotest.test_case "round-trip: every finding explains" `Slow
            test_audit_round_trip;
          Alcotest.test_case "export allocation per finding" `Slow
            test_export_allocation;
          Alcotest.test_case "journal identical at jobs=2" `Slow
            test_journal_jobs2;
          Alcotest.test_case "journal identical at jobs=8" `Slow
            test_journal_jobs8;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unwritable --evidence fails loudly" `Slow
            test_unwritable_evidence;
          Alcotest.test_case "unwritable --metrics fails loudly" `Slow
            test_unwritable_metrics;
        ] );
    ]
