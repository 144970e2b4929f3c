(* Tests for the C/C++/CUDA front-end: lexer, preprocessor, parser,
   pretty-printer, call graph. *)

let lex src = (Cfront.Lexer.tokenize ~file:"t.c" src).Cfront.Lexer.tokens

(* every kind but the final [Eof] *)
let kinds src =
  let t = lex src in
  List.init (Cfront.Token.length t - 1) (Cfront.Token.kind t)

let parse src = Cfront.Parser.parse_file ~file:"t.cc" src

let parse_clean src =
  let tu = parse src in
  Alcotest.(check (list string)) "no diagnostics" [] tu.Cfront.Ast.diags;
  tu

let first_func tu =
  match Cfront.Ast.functions_of_tu tu with
  | f :: _ -> f
  | [] -> Alcotest.fail "expected a function"

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lex_idents_keywords () =
  match kinds "int foo" with
  | [ Cfront.Token.Keyword "int"; Cfront.Token.Ident "foo" ] -> ()
  | ks -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map Cfront.Token.kind_to_string ks))

let test_lex_int_literals () =
  (match kinds "42 0x1F 7u 100L" with
   | [ Cfront.Token.Int_lit (42L, _); Cfront.Token.Int_lit (31L, _);
       Cfront.Token.Int_lit (7L, _); Cfront.Token.Int_lit (100L, _) ] -> ()
   | _ -> Alcotest.fail "int literals")

let test_lex_float_literals () =
  match kinds "1.5 2e3 0.5f 3." with
  | [ Cfront.Token.Float_lit (a, _); Cfront.Token.Float_lit (b, _);
      Cfront.Token.Float_lit (c, _); Cfront.Token.Float_lit (d, _) ] ->
    Alcotest.(check (float 1e-9)) "1.5" 1.5 a;
    Alcotest.(check (float 1e-9)) "2e3" 2000.0 b;
    Alcotest.(check (float 1e-9)) "0.5f" 0.5 c;
    Alcotest.(check (float 1e-9)) "3." 3.0 d
  | _ -> Alcotest.fail "float literals"

let test_lex_string_escapes () =
  match kinds {|"a\nb"|} with
  | [ Cfront.Token.String_lit "a\nb" ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lex_char_literal () =
  match kinds "'x' '\\n'" with
  | [ Cfront.Token.Char_lit 'x'; Cfront.Token.Char_lit '\n' ] -> ()
  | _ -> Alcotest.fail "char literals"

let test_lex_comments_counted () =
  let r = Cfront.Lexer.tokenize ~file:"t.c" "int a; // one\n/* two\nthree */ int b;" in
  Alcotest.(check int) "comment lines" 3 r.Cfront.Lexer.comment_lines;
  Alcotest.(check int) "tokens survive" 7 (Cfront.Token.length r.Cfront.Lexer.tokens)

let test_lex_multichar_puncts () =
  match kinds "<<< >>> <<= :: -> && ||" with
  | [ Cfront.Token.Punct "<<<"; Cfront.Token.Punct ">>>"; Cfront.Token.Punct "<<=";
      Cfront.Token.Punct "::"; Cfront.Token.Punct "->"; Cfront.Token.Punct "&&";
      Cfront.Token.Punct "||" ] -> ()
  | _ -> Alcotest.fail "punctuators"

let test_lex_unterminated_string_diag () =
  let r = Cfront.Lexer.tokenize ~file:"t.c" "\"oops" in
  Alcotest.(check bool) "diagnostic emitted" true (r.Cfront.Lexer.diagnostics <> [])

let test_lex_locations () =
  let t = lex "a\n  b" in
  Alcotest.(check int) "a, b, eof" 3 (Cfront.Token.length t);
  Alcotest.(check int) "a line" 1 (Cfront.Token.line t 0);
  Alcotest.(check int) "b line" 2 (Cfront.Token.line t 1);
  Alcotest.(check int) "b col" 3 (Cfront.Token.col t 1);
  Alcotest.(check string) "b loc" "t.c:2:3" (Cfront.Loc.to_string (Cfront.Token.loc t 1))

let puncts src =
  List.map
    (function Cfront.Token.Punct p -> p | k -> Cfront.Token.kind_to_string k)
    (kinds src)

let multichar_puncts =
  [ "<<<"; ">>>"; "<<="; ">>="; "..."; "->*"; "<<"; ">>"; "<="; ">="; "==";
    "!="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "%="; "&="; "|=";
    "^="; "->"; "::" ]

let test_lex_every_multichar_punct () =
  List.iter
    (fun p ->
      Alcotest.(check (list string)) p [ p ] (puncts p);
      (* also when the input ends right after it, and between identifiers *)
      Alcotest.(check (list string)) ("a" ^ p ^ "b") [ "ident a"; p; "ident b" ]
        (puncts ("a" ^ p ^ "b")))
    multichar_puncts

let test_lex_longest_match () =
  List.iter
    (fun (src, expected) -> Alcotest.(check (list string)) src expected (puncts src))
    [ (">>=", [ ">>=" ]); ("->*", [ "->*" ]); ("<<<", [ "<<<" ]);
      ("<<<=", [ "<<<"; "=" ]); (">>>>", [ ">>>"; ">" ]); ("....", [ "..."; "." ]);
      ("..", [ "."; "." ]); ("->->", [ "->"; "->" ]); ("+++", [ "++"; "+" ]);
      ("-->", [ "--"; ">" ]); ("&&=", [ "&&"; "=" ]); (":::", [ "::"; ":" ]);
      ("<", [ "<" ]); ("-", [ "-" ]); ("=!", [ "="; "!" ]);
      ("@$`\000", [ "@"; "$"; "`"; "\000" ]) ]

let test_lex_keyword_prefixed_idents () =
  match kinds "intx __global__x int_ returnValue if" with
  | [ Cfront.Token.Ident "intx"; Cfront.Token.Ident "__global__x";
      Cfront.Token.Ident "int_"; Cfront.Token.Ident "returnValue";
      Cfront.Token.Keyword "if" ] -> ()
  | ks -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map Cfront.Token.kind_to_string ks))

let test_lex_hex_ending_in_f () =
  match kinds "0x1f 0XFF 0x1Fu 0xfUL" with
  | [ Cfront.Token.Int_lit (31L, "0x1f"); Cfront.Token.Int_lit (255L, "0XFF");
      Cfront.Token.Int_lit (31L, "0x1Fu"); Cfront.Token.Int_lit (15L, "0xfUL") ] -> ()
  | ks -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map Cfront.Token.kind_to_string ks))

(* A line counts when it holds comment text other than the closing
   delimiter: a block comment whose closing delimiter starts a line
   does not count that line. *)
let test_lex_comment_line_rule () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check int) (String.escaped src) expected
        (Cfront.Lexer.tokenize ~file:"t.c" src).Cfront.Lexer.comment_lines)
    [ ("/* a\n*/ x", 1); ("/* a\n */ x", 2); ("/* a */ /* b */ x", 1);
      ("/*\n\n*/", 2); ("/* a\n", 1); ("// a\n// b\nx", 2);
      ("x /* a */ // b", 1); ("/* a\n*/ // b", 2); ("x\n/**/\n", 1) ]

let int_values src =
  List.map
    (function Cfront.Token.Int_lit (v, _) -> v | _ -> Alcotest.fail "int literal")
    (kinds src)

let test_lex_octal_literals () =
  Alcotest.(check (list int64)) "octal values" [ 8L; 493L; 0L; 0L; 8L; 16L; 7L; 0L ]
    (int_values "010 0755 0 00 010u 0x10 07L 0u");
  let r = Cfront.Lexer.tokenize ~file:"t.c" "010.5 0e1" in
  let t = r.Cfront.Lexer.tokens in
  (match List.init (Cfront.Token.length t) (Cfront.Token.kind t) with
   | [ Cfront.Token.Float_lit (a, _); Cfront.Token.Float_lit (b, _); _ ] ->
     Alcotest.(check (float 1e-9)) "010.5 is decimal" 10.5 a;
     Alcotest.(check (float 1e-9)) "0e1" 0.0 b
   | _ -> Alcotest.fail "octal-looking floats");
  Alcotest.(check (list string)) "valid octal: no diagnostic" [] r.Cfront.Lexer.diagnostics

let test_lex_bad_octal_diag () =
  let r = Cfront.Lexer.tokenize ~file:"t.c" "int a = 08;\nint b = 0179;" in
  Alcotest.(check (list string)) "one located diagnostic per literal"
    [ "t.c:1:9: invalid digit in octal constant 08";
      "t.c:2:9: invalid digit in octal constant 0179" ]
    r.Cfront.Lexer.diagnostics

(* Octal values reach the AST: constants and array sizes. *)
let test_parse_octal_constants () =
  (match (Cfront.Parser.parse_expr_string "0755").Cfront.Ast.e with
   | Cfront.Ast.Int_const 493L -> ()
   | _ -> Alcotest.fail "0755 is 493");
  match Cfront.Ast.globals_of_tu (parse_clean "int g[010];") with
  | [ g ] ->
    (match g.Cfront.Ast.g_decl.Cfront.Ast.v_type with
     | Cfront.Ast.Tarray (_, Some 8) -> ()
     | t -> Alcotest.failf "array size: %s" (Cfront.Ast.type_to_string t))
  | _ -> Alcotest.fail "one global"

(* Digest of a token stream: kind, spelling, literal value and location of
   every token, then the diagnostics and the comment-line count. *)
let stream_digest tokens ~comment_lines ~diags =
  let b = Buffer.create 65536 in
  for i = 0 to Cfront.Token.length tokens - 1 do
    let kind = Cfront.Token.kind tokens i in
    let value =
      match kind with
      | Cfront.Token.Int_lit (v, _) -> Int64.to_string v
      | Cfront.Token.Float_lit (f, _) -> Printf.sprintf "%h" f
      | _ -> ""
    in
    Printf.bprintf b "%s\x00%s\x00%s\x00%d:%d\n"
      (Cfront.Token.kind_to_string kind) (Cfront.Token.spelling kind)
      value (Cfront.Token.line tokens i) (Cfront.Token.col tokens i)
  done;
  List.iter (fun d -> Printf.bprintf b "diag %s\n" d) diags;
  Printf.bprintf b "comment_lines %d\n" comment_lines;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The lexer's output on the small seed-2019 corpus, pinned from the
   list-scanning lexer this one replaced: per file, the stream of
   [Lexer.tokenize] on the raw content (directive lines reach the lexer
   and are diagnosed) and the final stream of [Parser.lex_file]. *)
let pinned_streams =
  [
    ("modules/perception/perception_component_0.cc",
     "e9883c4e6861a13eafaee196603b86a0", "451f65efe13963e3afc2a6d982ed7bf9");
    ("modules/perception/perception_component_1.cc",
     "95f035d8705847d48fcc7b07873ad93a", "94898b3ae157c20bca9782756ac3281a");
    ("modules/perception/perception_component_2.cc",
     "2d8a49bf68f288dd99835fb14d994161", "efa4293f21a44b440217d33222d72fc5");
    ("modules/perception/perception_component_3.cc",
     "5b8cf44b0b4f5d7caecbd55a3022ee88", "b3372847411690cf7dd647aa13831072");
    ("modules/planning/planning_component_0.cc",
     "7fb1b954965d36475ca44e3b09dd6573", "2e928d045b53de58c8dc10d94bffc5a3");
    ("modules/planning/planning_component_1.cc",
     "e706ad491eb530568fd87c6450726e00", "8e2f8b45bd9f5c58b166db1d0c675688");
    ("modules/planning/planning_component_2.cc",
     "7957aa22b49e2b3a36358980d7fd0f0e", "7aeb665fbd9b821f73a8d38115e4c58e");
    ("modules/prediction/prediction_component_0.cc",
     "b7ad305fe7f6f28d5d505bbd420089c2", "784c0fd447db53f3b41ad57d5f236cea");
    ("modules/prediction/prediction_component_1.cc",
     "e811c564a965629456aa498333e24aa1", "89ffd56c62bd5c47b81115de446f28b2");
    ("modules/localization/localization_component_0.cc",
     "076c47fd6669c426f36310cfc68f9471", "f636f52a210fafe5698a4cdd5b639eac");
    ("modules/map/map_component_0.cc",
     "3341f655f4704d321dc8363dfcaa8ad5", "da9450bf4b36a5b161b3db1aebfe1df0");
    ("modules/map/map_component_1.cc",
     "e95d55904d7ac11ec0ee90f86f01cedc", "a7fee83737d13c5034852c741b3a3f44");
    ("modules/routing/routing_component_0.cc",
     "5833302a49b58cb92bf5b7bfa051819a", "613e42007ffefb97a956f9ec4010cbba");
    ("modules/control/control_component_0.cc",
     "ae286b6a6dd61389e7bc6e0b3979ad21", "84e795d40745643b9cd7046d332b212c");
    ("modules/canbus/canbus_component_0.cc",
     "1585f1fe93cff6289f1888696c6cb3b5", "0c7007844e77dbe9d3a08b66f4eb0d72");
    ("modules/common/common_component_0.cc",
     "90f315880a2df6a0869ac96e214f2b5f", "bd5429ecf8271a683dfc4f70e95f09a8");
  ]

let test_lex_pinned_corpus () =
  let project = Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small in
  let files = Cfront.Project.all_files project in
  Alcotest.(check (list string)) "pinned files"
    (List.map (fun (p, _, _) -> p) pinned_streams)
    (List.map (fun f -> f.Cfront.Project.path) files);
  List.iter2
    (fun (f : Cfront.Project.source_file) (path, raw, final) ->
      let r = Cfront.Lexer.tokenize ~file:path f.Cfront.Project.content in
      Alcotest.(check string) (path ^ " raw") raw
        (stream_digest r.Cfront.Lexer.tokens ~comment_lines:r.Cfront.Lexer.comment_lines
           ~diags:r.Cfront.Lexer.diagnostics);
      let lx = Cfront.Parser.lex_file ~file:path f.Cfront.Project.content in
      Alcotest.(check string) (path ^ " final") final
        (stream_digest lx.Cfront.Parser.lx_tokens
           ~comment_lines:lx.Cfront.Parser.lx_comment_lines ~diags:lx.Cfront.Parser.lx_diags))
    files pinned_streams

(* A position is one immediate int; lines up to 2^31 and columns up to
   2^32 survive the packing. *)
let test_position_round_trip () =
  List.iter
    (fun (line, col) ->
      let p = Cfront.Token.pack ~line ~col in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d:%d" line col) (line, col)
        (Cfront.Token.line_of_pos p, Cfront.Token.col_of_pos p))
    [ (1, 1); (2, 3); (1, (1 lsl 24) + 1); ((1 lsl 24) + 1, 1); (1 lsl 31, 1);
      (1, (1 lsl 31) + 1); ((1 lsl 30) + 7, (1 lsl 30) + 9); (1 lsl 31, 1 lsl 32) ]

(* A column past 2^24 through the lexer, the table and [Token.loc]. *)
let test_lex_column_past_2_24 () =
  let pad = (1 lsl 24) + 5 in
  let t = lex ("a\n" ^ String.make pad ' ' ^ "b") in
  Alcotest.(check int) "a, b, eof" 3 (Cfront.Token.length t);
  Alcotest.(check int) "b line" 2 (Cfront.Token.line t 1);
  Alcotest.(check int) "b col" (pad + 1) (Cfront.Token.col t 1);
  Alcotest.(check string) "b loc" (Printf.sprintf "t.c:2:%d" (pad + 1))
    (Cfront.Loc.to_string (Cfront.Token.loc t 1));
  Alcotest.(check int) "eof col" (pad + 2) (Cfront.Token.col t 2)

(* Each distinct identifier, keyword and punctuator spelling is one kind
   value in a unit's table, macro expansions included. *)
let test_table_interns_spellings () =
  let lx = Cfront.Parser.lex_file ~file:"t.c" "#define N x\nint x; int y = x + N + x;" in
  let t = lx.Cfront.Parser.lx_tokens in
  let positions k =
    List.filter (fun i -> Cfront.Token.kind t i = k) (List.init (Cfront.Token.length t) Fun.id)
  in
  let shared k =
    match positions k with
    | i :: rest -> List.for_all (fun j -> Cfront.Token.kind t j == Cfront.Token.kind t i) rest
    | [] -> false
  in
  Alcotest.(check int) "four x" 4 (List.length (positions (Cfront.Token.Ident "x")));
  Alcotest.(check bool) "x shared" true (shared (Cfront.Token.Ident "x"));
  Alcotest.(check bool) "int shared" true (shared (Cfront.Token.Keyword "int"));
  Alcotest.(check bool) "; shared" true (shared (Cfront.Token.Punct ";"));
  Alcotest.(check bool) "+ shared" true (shared (Cfront.Token.Punct "+"))

(* The units' tables of the small seed-2019 corpus hold at most 4
   reachable words per token (a boxed token list held about 15). *)
let test_tables_compact () =
  let project = Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small in
  let parsed = Cfront.Project.parse project in
  let tables = List.map (fun pf -> (Cfront.Project.tu pf).Cfront.Ast.tokens) parsed.Cfront.Project.files in
  let words = Obj.reachable_words (Obj.repr tables) - (3 * List.length tables) in
  let tokens = List.fold_left (fun acc t -> acc + Cfront.Token.length t) 0 tables in
  let per_token = float_of_int words /. float_of_int tokens in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per token <= 4" per_token) true
    (per_token <= 4.0)

(* Totality: whatever bytes arrive, the lexer and [Parser.lex_file]
   return, the stream ends in exactly one [Eof], and every token lies
   inside the input (a line of it, at most one column past its end). *)
let stream_well_formed ~file src tokens =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Cfront.Token.length tokens in
  let inside i =
    let l = Cfront.Token.loc tokens i in
    l.Cfront.Loc.file = file && l.Cfront.Loc.line >= 1
    && l.Cfront.Loc.line <= Array.length lines
    && l.Cfront.Loc.col >= 1
    && l.Cfront.Loc.col <= String.length lines.(l.Cfront.Loc.line - 1) + 1
  in
  let is_eof i = Cfront.Token.kind tokens i = Cfront.Token.Eof in
  let indices = List.init n Fun.id in
  n > 0 && is_eof (n - 1)
  && List.length (List.filter is_eof indices) = 1
  && List.for_all inside indices

let lexes_totally src =
  let file = "fuzz.cc" in
  match
    ( Cfront.Lexer.tokenize ~file src,
      Cfront.Parser.lex_file ~file src )
  with
  | r, lx ->
    stream_well_formed ~file src r.Cfront.Lexer.tokens
    && stream_well_formed ~file src lx.Cfront.Parser.lx_tokens
  | exception _ -> false

(* Bytes biased toward the characters that switch lexer states. *)
let c_bytes_gen =
  QCheck.Gen.(
    string_size ~gen:(frequency
      [ (3, char);
        (2, oneofl [ '/'; '*'; '\n'; '"'; '\''; '\\'; '#'; '0'; 'x'; '.'; 'e';
                     '<'; '>'; '-'; '=' ]);
        (2, oneofl [ 'a'; 'i'; 'n'; 't'; ' '; '8'; '9'; 'f'; 'u'; 'L' ]) ])
      (int_range 0 400))

let prop_lexer_total_on_bytes =
  QCheck.Test.make ~name:"lexer is total on arbitrary bytes" ~count:300
    (QCheck.make ~print:String.escaped c_bytes_gen)
    lexes_totally

let corpus_files =
  lazy
    (Array.of_list
       (Cfront.Project.all_files
          (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small)))

let prop_lexer_total_on_truncations =
  QCheck.Test.make ~name:"lexer is total on truncated corpus files" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 0 100_000))
    (fun (i, cut) ->
      let files = Lazy.force corpus_files in
      let content = files.(i mod Array.length files).Cfront.Project.content in
      lexes_totally (String.sub content 0 (cut mod (String.length content + 1))))

(* ------------------------------------------------------------------ *)
(* Preprocessor                                                         *)
(* ------------------------------------------------------------------ *)

let test_preproc_includes () =
  let r = Cfront.Preproc.run ~file:"t.c" "#include <math.h>\n#include \"foo.h\"\nint a;" in
  let incs =
    List.filter_map
      (fun (_, d) ->
        match d with
        | Cfront.Preproc.Include { path; system } -> Some (path, system)
        | _ -> None)
      r.Cfront.Preproc.directives
  in
  Alcotest.(check (list (pair string bool))) "includes"
    [ ("math.h", true); ("foo.h", false) ] incs

let test_preproc_line_preservation () =
  (* stripped directives must keep later tokens on their original lines *)
  let r = Cfront.Preproc.run ~file:"t.c" "#define X 1\n#include <a.h>\nint a;" in
  let toks = (Cfront.Lexer.tokenize ~file:"t.c" r.Cfront.Preproc.text).Cfront.Lexer.tokens in
  Alcotest.(check int) "int on line 3" 3 (Cfront.Token.line toks 0)

let test_preproc_ifdef () =
  let src = "#define FEATURE 1\n#ifdef FEATURE\nint yes;\n#else\nint no;\n#endif" in
  let r = Cfront.Preproc.run ~file:"t.c" src in
  Alcotest.(check bool) "keeps taken branch" true
    (Util.Strutil.contains_sub ~sub:"yes" r.Cfront.Preproc.text);
  Alcotest.(check bool) "drops other branch" false
    (Util.Strutil.contains_sub ~sub:"no" r.Cfront.Preproc.text)

let test_preproc_if_zero () =
  let r = Cfront.Preproc.run ~file:"t.c" "#if 0\nint dead;\n#endif\nint live;" in
  Alcotest.(check bool) "drops #if 0" false
    (Util.Strutil.contains_sub ~sub:"dead" r.Cfront.Preproc.text);
  Alcotest.(check bool) "keeps rest" true
    (Util.Strutil.contains_sub ~sub:"live" r.Cfront.Preproc.text)

let test_preproc_nested_conditions () =
  let src = "#if 1\n#if 0\nint a;\n#endif\nint b;\n#endif" in
  let r = Cfront.Preproc.run ~file:"t.c" src in
  Alcotest.(check bool) "inner dropped" false
    (Util.Strutil.contains_sub ~sub:"int a" r.Cfront.Preproc.text);
  Alcotest.(check bool) "outer kept" true
    (Util.Strutil.contains_sub ~sub:"int b" r.Cfront.Preproc.text)

let test_preproc_macro_expansion () =
  let tu = parse_clean "#define BLOCK 256\nint size = BLOCK * 2;" in
  match Cfront.Ast.globals_of_tu tu with
  | [ g ] -> (
      match g.Cfront.Ast.g_decl.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.Binary (Cfront.Ast.Mul, { e = Cfront.Ast.Int_const 256L; _ }, _); _ } -> ()
      | _ -> Alcotest.fail "macro not substituted")
  | _ -> Alcotest.fail "expected one global"

let test_preproc_recursive_macro_terminates () =
  let r = Cfront.Preproc.run ~file:"t.c" "#define A A\nint x = A;" in
  let names = Cfront.Token.names () in
  let lexed = Cfront.Lexer.tokenize_with names ~file:"t.c" r.Cfront.Preproc.text in
  let toks =
    Cfront.Preproc.expand_macros ~names ~defines:[ ("A", "A") ] lexed.Cfront.Lexer.tokens
  in
  Alcotest.(check bool) "terminates" true (Cfront.Token.length toks > 0)

(* ------------------------------------------------------------------ *)
(* Parser: declarations                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_function_signature () =
  let tu = parse_clean "float Dot(const float* a, const float* b, int n) { return 0.0f; }" in
  let f = first_func tu in
  Alcotest.(check string) "name" "Dot" f.Cfront.Ast.f_name;
  Alcotest.(check int) "params" 3 (List.length f.Cfront.Ast.f_params);
  (match f.Cfront.Ast.f_ret with
   | Cfront.Ast.Tfloat -> ()
   | t -> Alcotest.failf "return type %s" (Cfront.Ast.type_to_string t))

let test_parse_namespace_scoping () =
  let tu = parse_clean "namespace apollo {\nnamespace perception {\nint F(int a) { return a; }\n}\n}" in
  let f = first_func tu in
  Alcotest.(check string) "qualified" "apollo::perception::F" (Cfront.Ast.qualified_name f)

let test_parse_qualified_definition () =
  let tu = parse_clean "int Tracker::Update(int x) { return x; }" in
  let f = first_func tu in
  Alcotest.(check string) "scope from name" "Tracker::Update" (Cfront.Ast.qualified_name f)

let test_parse_globals () =
  let tu = parse_clean "static int g_count = 0;\nconst int kMax = 5;\nextern int g_other;\ndouble g_a, g_b = 1.5;" in
  let gs = Cfront.Ast.globals_of_tu tu in
  Alcotest.(check int) "five declarators" 5 (List.length gs);
  let count = List.find (fun (g : Cfront.Ast.global_var) -> g.Cfront.Ast.g_decl.Cfront.Ast.v_name = "g_count") gs in
  Alcotest.(check bool) "static" true count.Cfront.Ast.g_static;
  let kmax = List.find (fun (g : Cfront.Ast.global_var) -> g.Cfront.Ast.g_decl.Cfront.Ast.v_name = "kMax") gs in
  Alcotest.(check bool) "const" true kmax.Cfront.Ast.g_const;
  let other = List.find (fun (g : Cfront.Ast.global_var) -> g.Cfront.Ast.g_decl.Cfront.Ast.v_name = "g_other") gs in
  Alcotest.(check bool) "extern" true other.Cfront.Ast.g_extern

let test_parse_struct () =
  let tu = parse_clean "struct Box {\n  float x;\n  float w, h;\n  int Area() { return 0; }\n};" in
  match Cfront.Ast.records_of_tu tu with
  | [ r ] ->
    Alcotest.(check string) "name" "Box" r.Cfront.Ast.r_name;
    Alcotest.(check int) "fields" 3 (List.length r.Cfront.Ast.r_fields);
    Alcotest.(check int) "methods" 1 (List.length r.Cfront.Ast.r_methods)
  | _ -> Alcotest.fail "one record"

let test_parse_class_access_and_ctor () =
  let src =
    "class Tracker {\n public:\n  Tracker(int id) { id_ = id; }\n  int Id() { return id_; }\n private:\n  int id_;\n};"
  in
  let tu = parse_clean src in
  match Cfront.Ast.records_of_tu tu with
  | [ r ] ->
    Alcotest.(check int) "ctor + method" 2 (List.length r.Cfront.Ast.r_methods);
    (match r.Cfront.Ast.r_fields with
     | [ (access, d) ] ->
       Alcotest.(check string) "field" "id_" d.Cfront.Ast.v_name;
       Alcotest.(check bool) "private" true (access = Cfront.Ast.Priv)
     | _ -> Alcotest.fail "one field")
  | _ -> Alcotest.fail "one record"

let test_parse_enum () =
  let tu = parse_clean "enum Mode { IDLE, ACTIVE = 5, DONE };" in
  let found = ref false in
  Cfront.Ast.iter_tops
    (fun top ->
      match top with
      | Cfront.Ast.Tenum e ->
        found := true;
        Alcotest.(check (list (pair string (option int)))) "items"
          [ ("IDLE", None); ("ACTIVE", Some 5); ("DONE", None) ]
          e.Cfront.Ast.en_items
      | _ -> ())
    tu.Cfront.Ast.tops;
  Alcotest.(check bool) "enum found" true !found

let test_parse_typedef_registers_type () =
  let tu = parse_clean "typedef float real;\nreal Scale(real x) { return x; }" in
  let f = first_func tu in
  (match (List.hd f.Cfront.Ast.f_params).Cfront.Ast.p_type with
   | Cfront.Ast.Tnamed "real" -> ()
   | _ -> Alcotest.fail "typedef name used as type")

let test_parse_template_skipped () =
  let tu = parse_clean "template <typename T>\nint Sum(int n) { return n; }" in
  Alcotest.(check int) "function parsed" 1 (List.length (Cfront.Ast.functions_of_tu tu))

let test_parse_tolerant_recovery () =
  let tu = parse "@@garbage@@;\nint Good(int a) { return a; }" in
  Alcotest.(check bool) "diagnostic" true (tu.Cfront.Ast.diags <> []);
  Alcotest.(check int) "recovered function" 1
    (List.length (Cfront.Ast.functions_of_tu tu));
  let unparsed =
    List.exists
      (fun top -> match top with Cfront.Ast.Tunparsed _ -> true | _ -> false)
      tu.Cfront.Ast.tops
  in
  Alcotest.(check bool) "unparsed region recorded" true unparsed

let test_parse_cuda_qualifiers () =
  let tu = parse_clean "__global__ void K(float* p, int n) {\n  int i = threadIdx.x;\n  if (i < n) { p[i] = 0.0f; }\n}" in
  let f = first_func tu in
  Alcotest.(check bool) "kernel" true (List.mem Cfront.Ast.Q_global f.Cfront.Ast.f_quals)

let test_parse_device_global_var () =
  let tu = parse_clean "__device__ float d_bias = 0.5f;" in
  match Cfront.Ast.globals_of_tu tu with
  | [ g ] -> Alcotest.(check bool) "device" true g.Cfront.Ast.g_device
  | _ -> Alcotest.fail "one global"

(* ------------------------------------------------------------------ *)
(* Parser: statements and expressions                                   *)
(* ------------------------------------------------------------------ *)

let body_stmts src =
  let tu = parse_clean (Printf.sprintf "void F() {\n%s\n}" src) in
  match (first_func tu).Cfront.Ast.f_body with
  | Some { s = Cfront.Ast.Sblock ss; _ } -> ss
  | _ -> Alcotest.fail "expected block body"

let test_parse_precedence () =
  match body_stmts "int x = 1 + 2 * 3;" with
  | [ { s = Cfront.Ast.Sdecl [ d ]; _ } ] -> (
      match d.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.Binary (Cfront.Ast.Add, _,
                                      { e = Cfront.Ast.Binary (Cfront.Ast.Mul, _, _); _ }); _ } -> ()
      | _ -> Alcotest.fail "mul binds tighter than add")
  | _ -> Alcotest.fail "decl expected"

let test_parse_logical_precedence () =
  match body_stmts "int x = 1 || 0 && 0;" with
  | [ { s = Cfront.Ast.Sdecl [ d ]; _ } ] -> (
      match d.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.Binary (Cfront.Ast.Lor, _,
                                      { e = Cfront.Ast.Binary (Cfront.Ast.Land, _, _); _ }); _ } -> ()
      | _ -> Alcotest.fail "&& binds tighter than ||")
  | _ -> Alcotest.fail "decl expected"

let test_parse_casts () =
  match body_stmts "float f = 2.5f; int a = (int)f; float b = static_cast<float>(a);" with
  | [ _; { s = Cfront.Ast.Sdecl [ d1 ]; _ }; { s = Cfront.Ast.Sdecl [ d2 ]; _ } ] ->
    (match d1.Cfront.Ast.v_init with
     | Some { e = Cfront.Ast.C_cast (Cfront.Ast.Tint _, _); _ } -> ()
     | _ -> Alcotest.fail "C cast");
    (match d2.Cfront.Ast.v_init with
     | Some { e = Cfront.Ast.Cpp_cast (Cfront.Ast.Static_cast, Cfront.Ast.Tfloat, _); _ } -> ()
     | _ -> Alcotest.fail "static_cast")
  | _ -> Alcotest.fail "three decls"

let test_parse_paren_not_cast () =
  (* (n) * x where n is not a type must be multiplication *)
  match body_stmts "int n = 2; int x = 3; int y = (n) * x;" with
  | [ _; _; { s = Cfront.Ast.Sdecl [ d ]; _ } ] -> (
      match d.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.Binary (Cfront.Ast.Mul, _, _); _ } -> ()
      | _ -> Alcotest.fail "parsed as cast, expected multiplication")
  | _ -> Alcotest.fail "three decls"

(* The cast check reads a constant number of tokens per '(' of a nested
   parenthesized expression: it stops at a '(' seen before any type
   word.  When it rescanned every level inside, N levels cost O(N^2)
   token reads (about 4 s of parse at N = 20,000). *)
let test_parse_nested_parens_linear () =
  let steps n =
    let src =
      "int f(void) { return " ^ String.make n '(' ^ "1" ^ String.make n ')' ^ "; }"
    in
    Telemetry.reset ();
    Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_enabled false;
        Telemetry.reset ())
    @@ fun () ->
    let tu = Cfront.Parser.parse_file ~file:"nest.c" src in
    Alcotest.(check (list string)) "parses clean" [] tu.Cfront.Ast.diags;
    Telemetry.counter "parse.cast_scan_steps"
  in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d levels" n) n (steps n))
    [ 1; 100; 10_000 ]

let test_parse_kernel_launch () =
  match body_stmts "K<<<2, 64>>>(1, 2);" with
  | [ { s = Cfront.Ast.Sexpr { e = Cfront.Ast.Kernel_launch { grid; block; args; _ }; _ }; _ } ] ->
    (match (grid.Cfront.Ast.e, block.Cfront.Ast.e) with
     | Cfront.Ast.Int_const 2L, Cfront.Ast.Int_const 64L -> ()
     | _ -> Alcotest.fail "launch config");
    Alcotest.(check int) "args" 2 (List.length args)
  | _ -> Alcotest.fail "kernel launch"

let test_parse_new_delete () =
  match body_stmts "float* p = new float[10]; delete[] p;" with
  | [ { s = Cfront.Ast.Sdecl [ d ]; _ };
      { s = Cfront.Ast.Sexpr { e = Cfront.Ast.Delete { array = true; _ }; _ }; _ } ] -> (
      match d.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.New { array_size = Some _; _ }; _ } -> ()
      | _ -> Alcotest.fail "new[]")
  | _ -> Alcotest.fail "new/delete"

let test_parse_sizeof () =
  match body_stmts "int a = sizeof(float); int b = sizeof a;" with
  | [ { s = Cfront.Ast.Sdecl [ d1 ]; _ }; { s = Cfront.Ast.Sdecl [ d2 ]; _ } ] ->
    (match d1.Cfront.Ast.v_init with
     | Some { e = Cfront.Ast.Sizeof_type Cfront.Ast.Tfloat; _ } -> ()
     | _ -> Alcotest.fail "sizeof(type)");
    (match d2.Cfront.Ast.v_init with
     | Some { e = Cfront.Ast.Sizeof_expr _; _ } -> ()
     | _ -> Alcotest.fail "sizeof expr")
  | _ -> Alcotest.fail "two decls"

let test_parse_for_variants () =
  let ss = body_stmts "for (int i = 0; i < 3; ++i) { }\nfor (;;) { break; }" in
  match ss with
  | [ { s = Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl _; cond = Some _; update = Some _; _ }; _ };
      { s = Cfront.Ast.Sfor { init = Cfront.Ast.Fi_empty; cond = None; update = None; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "for variants"

let test_parse_switch_and_labels () =
  let ss = body_stmts "switch (1) { case 0: break; default: break; }\ngoto end;\nend: return;" in
  Alcotest.(check int) "three statements" 3 (List.length ss);
  (match List.nth ss 2 with
   | { s = Cfront.Ast.Slabel ("end", { s = Cfront.Ast.Sreturn None; _ }); _ } -> ()
   | _ -> Alcotest.fail "label")

let test_parse_do_while () =
  match body_stmts "int i = 0; do { i++; } while (i < 3);" with
  | [ _; { s = Cfront.Ast.Sdo_while (_, _); _ } ] -> ()
  | _ -> Alcotest.fail "do-while"

let test_parse_try_catch () =
  match body_stmts "try { throw 1; } catch (int e) { return; }" with
  | [ { s = Cfront.Ast.Stry { catches = [ _ ]; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "try/catch"

let test_parse_ternary_and_comma () =
  match body_stmts "int a = 1 ? 2 : 3; a = 1, a = 2;" with
  | [ { s = Cfront.Ast.Sdecl [ d ]; _ };
      { s = Cfront.Ast.Sexpr { e = Cfront.Ast.Binary (Cfront.Ast.Comma, _, _); _ }; _ } ] -> (
      match d.Cfront.Ast.v_init with
      | Some { e = Cfront.Ast.Ternary _; _ } -> ()
      | _ -> Alcotest.fail "ternary")
  | _ -> Alcotest.fail "ternary/comma"

let test_parse_member_chains () =
  match body_stmts "obj.field = ptr->next;" with
  | [ { s = Cfront.Ast.Sexpr
            { e = Cfront.Ast.Assign (_, { e = Cfront.Ast.Member { arrow = false; field = "field"; _ }; _ },
                                     { e = Cfront.Ast.Member { arrow = true; field = "next"; _ }; _ }); _ }; _ } ] -> ()
  | _ -> Alcotest.fail "member access"

let test_parse_extern_c () =
  let tu = parse_clean "extern \"C\" int CApi(int x);" in
  let f = first_func tu in
  Alcotest.(check bool) "extern" true (List.mem Cfront.Ast.Q_extern f.Cfront.Ast.f_quals);
  Alcotest.(check bool) "prototype" true (f.Cfront.Ast.f_body = None)

(* Every expression and statement id of a unit, in traversal order. *)
let ids_of tu =
  let acc = ref [] in
  List.iter
    (fun (f : Cfront.Ast.func) ->
      Cfront.Ast.iter_exprs_of_func (fun e -> acc := e.Cfront.Ast.eid :: !acc) f;
      Option.iter
        (Cfront.Ast.iter_stmts (fun s -> acc := s.Cfront.Ast.sid :: !acc))
        f.Cfront.Ast.f_body)
    (Cfront.Ast.functions_of_tu tu);
  List.rev !acc

(* Ids are a function of path and content: re-parsing reproduces them
   exactly, whatever was parsed in between. *)
let test_ids_reproducible () =
  let src = "int A(int x) { if (x > 0) { return 1; } return 2; }" in
  let tu1 = Cfront.Parser.parse_file ~file:"a.cc" src in
  ignore (Cfront.Parser.parse_file ~file:"b.cc" "int B() { return B(); }");
  let tu2 = Cfront.Parser.parse_file ~file:"a.cc" src in
  Alcotest.(check (list int)) "same ids" (ids_of tu1) (ids_of tu2);
  Alcotest.(check bool) "same marshaled unit" true
    (Marshal.to_string tu1 [] = Marshal.to_string tu2 [])

let test_unique_ids_across_tus () =
  let tu1 = Cfront.Parser.parse_file ~file:"a.cc" "int A() { return 1; }" in
  let tu2 = Cfront.Parser.parse_file ~file:"b.cc" "int B() { return 2; }" in
  let shared = List.filter (fun i -> List.mem i (ids_of tu2)) (ids_of tu1) in
  Alcotest.(check (list int)) "no id collisions" [] shared

(* A project parse is the same value at any worker count. *)
let test_project_parse_jobs_independent () =
  let restore = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore)
  @@ fun () ->
  let project =
    Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small
  in
  let tus_at jobs =
    Util.Pool.set_default_jobs jobs;
    Marshal.to_string
      (List.map Cfront.Project.tu (Cfront.Project.parse project).Cfront.Project.files)
      []
  in
  let seq = tus_at 1 in
  Alcotest.(check bool) "jobs=8 tus equal jobs=1 tus" true (seq = tus_at 8)

let project_of files =
  Cfront.Project.make ~name:"p"
    [ { Cfront.Project.m_name = "m";
        m_files =
          List.map
            (fun (path, content) ->
              { Cfront.Project.path; modname = "m"; header = false; content })
            files } ]

let first_body_stmt tu =
  match (first_func tu).Cfront.Ast.f_body with
  | Some { s = Cfront.Ast.Sblock (st :: _); _ } -> st.Cfront.Ast.s
  | _ -> Alcotest.fail "expected a non-empty body"

(* The type-name scan reads the final token stream, so a name declared
   only inside [#if 0] is not a type in other files, while an active one
   is. *)
let test_scan_skips_inactive_regions () =
  let project =
    project_of
      [ ("types.h", "#if 0\nstruct Hidden { int x; };\n#endif\nstruct Shown { int y; };\n");
        ("use.cc", "int F(int Hidden, int p) { Hidden * p; return 0; }\n");
        ("use2.cc", "int G() { Shown * q; return 0; }\n") ]
  in
  Alcotest.(check (list string)) "scanned names" [ "Shown" ]
    (Cfront.Project.scan_type_names (Cfront.Project.all_files project));
  match (Cfront.Project.parse project).Cfront.Project.files with
  | [ _; use; use2 ] ->
    (match first_body_stmt (Cfront.Project.tu use) with
     | Cfront.Ast.Sexpr { e = Cfront.Ast.Binary (Cfront.Ast.Mul, _, _); _ } -> ()
     | _ -> Alcotest.fail "Hidden * p is a multiplication");
    (match first_body_stmt (Cfront.Project.tu use2) with
     | Cfront.Ast.Sdecl [ d ] -> Alcotest.(check string) "declares q" "q" d.Cfront.Ast.v_name
     | _ -> Alcotest.fail "Shown * q declares q")
  | _ -> Alcotest.fail "three files"

(* [Project.parse] lexes each file once, yet yields exactly what parsing
   every file on its own with the scanned names does, at any jobs. *)
let test_project_parse_equals_parse_file () =
  let restore = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore)
  @@ fun () ->
  let project = Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small in
  let files = Cfront.Project.all_files project in
  let extra_types = Cfront.Project.scan_type_names files in
  let expected =
    Marshal.to_string
      (List.map
         (fun (f : Cfront.Project.source_file) ->
           Cfront.Parser.parse_file ~extra_types ~file:f.Cfront.Project.path
             f.Cfront.Project.content)
         files)
      []
  in
  List.iter
    (fun jobs ->
      Util.Pool.set_default_jobs jobs;
      let parsed = Cfront.Project.parse project in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals per-file parse_file" jobs)
        true
        (Marshal.to_string
           (List.map Cfront.Project.tu parsed.Cfront.Project.files)
           []
         = expected))
    [ 1; 8 ]

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip                                            *)
(* ------------------------------------------------------------------ *)

let structural_counts tu =
  let fns = Cfront.Ast.functions_of_tu tu in
  let stmts = ref 0 in
  List.iter
    (fun (f : Cfront.Ast.func) ->
      match f.Cfront.Ast.f_body with
      | Some b -> Cfront.Ast.iter_stmts (fun _ -> incr stmts) b
      | None -> ())
    fns;
  (List.length fns, !stmts, List.length (Cfront.Ast.globals_of_tu tu))

let test_pretty_roundtrip () =
  let src =
    "namespace n {\nint g_v = 3;\nint F(int a, float b) {\n  int r = 0;\n  \
     for (int i = 0; i < a; ++i) {\n    if (a > 2 && b > 0.5) { r += i; } else { r--; }\n  }\n  \
     switch (r % 3) {\n    case 0: r = 1; break;\n    default: break;\n  }\n  return r;\n}\n}"
  in
  let tu1 = parse_clean src in
  let printed = Cfront.Pretty.tu_str tu1 in
  let tu2 = Cfront.Parser.parse_file ~file:"roundtrip.cc" printed in
  Alcotest.(check (list string)) "reprint parses clean" [] tu2.Cfront.Ast.diags;
  let f1, s1, g1 = structural_counts tu1 and f2, s2, g2 = structural_counts tu2 in
  Alcotest.(check int) "functions preserved" f1 f2;
  Alcotest.(check int) "stmts preserved" s1 s2;
  Alcotest.(check int) "globals preserved" g1 g2

let prop_corpus_files_roundtrip =
  QCheck.Test.make ~name:"generated corpus files parse-print-parse stably" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let specs = [ List.hd Corpus.Apollo_profile.small ] in
      let project = Corpus.Generator.generate ~seed specs in
      match Cfront.Project.all_files project with
      | f :: _ ->
        let tu1 = Cfront.Parser.parse_file ~file:"f.cc" f.Cfront.Project.content in
        let tu2 = Cfront.Parser.parse_file ~file:"f2.cc" (Cfront.Pretty.tu_str tu1) in
        tu1.Cfront.Ast.diags = [] && tu2.Cfront.Ast.diags = []
        && structural_counts tu1 = structural_counts tu2
      | [] -> false)

(* The tolerant parser must never raise, whatever bytes arrive: fuzz by
   mutating a well-formed generated file. *)
let prop_parser_total_on_mutations =
  QCheck.Test.make ~name:"parser is total under random mutation" ~count:60
    QCheck.(triple (int_range 1 1000) (int_range 0 5000) (int_range 0 255))
    (fun (seed, pos, byte) ->
      let specs = [ List.nth Corpus.Apollo_profile.small 5 ] in
      let project = Corpus.Generator.generate ~seed specs in
      match Cfront.Project.all_files project with
      | f :: _ ->
        let src = Bytes.of_string f.Cfront.Project.content in
        let n = Bytes.length src in
        if n = 0 then true
        else begin
          Bytes.set src (pos mod n) (Char.chr byte);
          (* also truncate sometimes *)
          let text =
            if byte mod 3 = 0 then Bytes.sub_string src 0 (pos mod n)
            else Bytes.to_string src
          in
          match Cfront.Parser.parse_file ~file:"fuzz.cc" text with
          | _ -> true
          | exception _ -> false
        end
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Call graph                                                           *)
(* ------------------------------------------------------------------ *)

let graph_of src =
  let tu = parse_clean src in
  Cfront.Callgraph.build (Cfront.Ast.functions_of_tu tu)

let test_callgraph_edges () =
  let g = graph_of "int A() { return 1; }\nint B() { return A() + A(); }" in
  Alcotest.(check (list string)) "B calls A" [ "A"; "A" ] (Cfront.Callgraph.callees g "B");
  Alcotest.(check int) "fan-in of A" 1 (Cfront.Callgraph.fan_in g "A");
  Alcotest.(check int) "fan-out of B" 1 (Cfront.Callgraph.fan_out g "B")

let test_callgraph_scope_resolution () =
  let src =
    "namespace m1 { int Helper() { return 1; } int Use() { return Helper(); } }\n\
     namespace m2 { int Helper() { return 2; } }"
  in
  let g = graph_of src in
  Alcotest.(check (list string)) "prefers same scope" [ "m1::Helper" ]
    (Cfront.Callgraph.callees g "m1::Use")

let test_callgraph_direct_recursion () =
  let g = graph_of "int F(int n) { if (n <= 0) { return 0; } return F(n - 1); }" in
  Alcotest.(check (list string)) "self recursive" [ "F" ]
    (Cfront.Callgraph.recursive_functions g)

let test_callgraph_mutual_recursion () =
  let g =
    graph_of
      "int Odd(int n);\nint Even(int n) { if (n == 0) { return 1; } return Odd(n - 1); }\n\
       int Odd(int n) { if (n == 0) { return 0; } return Even(n - 1); }"
  in
  Alcotest.(check (list string)) "mutual pair" [ "Even"; "Odd" ]
    (List.sort compare (Cfront.Callgraph.recursive_functions g))

let test_callgraph_no_recursion () =
  let g = graph_of "int A() { return 1; }\nint B() { return A(); }" in
  Alcotest.(check (list string)) "none" [] (Cfront.Callgraph.recursive_functions g)

let () =
  Alcotest.run "cfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "idents and keywords" `Quick test_lex_idents_keywords;
          Alcotest.test_case "int literals" `Quick test_lex_int_literals;
          Alcotest.test_case "float literals" `Quick test_lex_float_literals;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "char literals" `Quick test_lex_char_literal;
          Alcotest.test_case "comments counted" `Quick test_lex_comments_counted;
          Alcotest.test_case "multichar punctuators" `Quick test_lex_multichar_puncts;
          Alcotest.test_case "unterminated string" `Quick test_lex_unterminated_string_diag;
          Alcotest.test_case "locations" `Quick test_lex_locations;
          Alcotest.test_case "every multichar punctuator" `Quick
            test_lex_every_multichar_punct;
          Alcotest.test_case "longest punctuator match" `Quick test_lex_longest_match;
          Alcotest.test_case "keyword-prefixed identifiers" `Quick
            test_lex_keyword_prefixed_idents;
          Alcotest.test_case "hex ending in f" `Quick test_lex_hex_ending_in_f;
          Alcotest.test_case "comment line rule" `Quick test_lex_comment_line_rule;
          Alcotest.test_case "octal literals" `Quick test_lex_octal_literals;
          Alcotest.test_case "bad octal diagnosed" `Quick test_lex_bad_octal_diag;
          Alcotest.test_case "octal constants in the AST" `Quick test_parse_octal_constants;
          Alcotest.test_case "pinned corpus streams" `Quick test_lex_pinned_corpus;
          Alcotest.test_case "position round trip" `Quick test_position_round_trip;
          Alcotest.test_case "column past 2^24" `Quick test_lex_column_past_2_24;
          Alcotest.test_case "table interns spellings" `Quick test_table_interns_spellings;
          Alcotest.test_case "tables compact" `Quick test_tables_compact;
          QCheck_alcotest.to_alcotest prop_lexer_total_on_bytes;
          QCheck_alcotest.to_alcotest prop_lexer_total_on_truncations;
        ] );
      ( "preproc",
        [
          Alcotest.test_case "includes" `Quick test_preproc_includes;
          Alcotest.test_case "line preservation" `Quick test_preproc_line_preservation;
          Alcotest.test_case "ifdef" `Quick test_preproc_ifdef;
          Alcotest.test_case "if 0" `Quick test_preproc_if_zero;
          Alcotest.test_case "nested conditions" `Quick test_preproc_nested_conditions;
          Alcotest.test_case "macro expansion" `Quick test_preproc_macro_expansion;
          Alcotest.test_case "recursive macro terminates" `Quick
            test_preproc_recursive_macro_terminates;
        ] );
      ( "parser-decls",
        [
          Alcotest.test_case "function signature" `Quick test_parse_function_signature;
          Alcotest.test_case "namespace scoping" `Quick test_parse_namespace_scoping;
          Alcotest.test_case "qualified definition" `Quick test_parse_qualified_definition;
          Alcotest.test_case "globals" `Quick test_parse_globals;
          Alcotest.test_case "struct" `Quick test_parse_struct;
          Alcotest.test_case "class access and ctor" `Quick test_parse_class_access_and_ctor;
          Alcotest.test_case "enum" `Quick test_parse_enum;
          Alcotest.test_case "typedef registers type" `Quick test_parse_typedef_registers_type;
          Alcotest.test_case "template skipped" `Quick test_parse_template_skipped;
          Alcotest.test_case "tolerant recovery" `Quick test_parse_tolerant_recovery;
          Alcotest.test_case "cuda qualifiers" `Quick test_parse_cuda_qualifiers;
          Alcotest.test_case "device global" `Quick test_parse_device_global_var;
          Alcotest.test_case "extern C" `Quick test_parse_extern_c;
          Alcotest.test_case "unique ids across TUs" `Quick test_unique_ids_across_tus;
          Alcotest.test_case "ids reproducible across parses" `Quick
            test_ids_reproducible;
          Alcotest.test_case "project parse jobs-independent" `Quick
            test_project_parse_jobs_independent;
          Alcotest.test_case "type scan skips inactive regions" `Quick
            test_scan_skips_inactive_regions;
          Alcotest.test_case "project parse equals per-file parse" `Quick
            test_project_parse_equals_parse_file;
        ] );
      ( "parser-stmts",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "logical precedence" `Quick test_parse_logical_precedence;
          Alcotest.test_case "casts" `Quick test_parse_casts;
          Alcotest.test_case "paren is not cast" `Quick test_parse_paren_not_cast;
          Alcotest.test_case "nested parens scan linearly" `Quick
            test_parse_nested_parens_linear;
          Alcotest.test_case "kernel launch" `Quick test_parse_kernel_launch;
          Alcotest.test_case "new/delete" `Quick test_parse_new_delete;
          Alcotest.test_case "sizeof" `Quick test_parse_sizeof;
          Alcotest.test_case "for variants" `Quick test_parse_for_variants;
          Alcotest.test_case "switch and labels" `Quick test_parse_switch_and_labels;
          Alcotest.test_case "do-while" `Quick test_parse_do_while;
          Alcotest.test_case "try/catch" `Quick test_parse_try_catch;
          Alcotest.test_case "ternary and comma" `Quick test_parse_ternary_and_comma;
          Alcotest.test_case "member chains" `Quick test_parse_member_chains;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip" `Quick test_pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_corpus_files_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total_on_mutations;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "edges and fans" `Quick test_callgraph_edges;
          Alcotest.test_case "scope resolution" `Quick test_callgraph_scope_resolution;
          Alcotest.test_case "direct recursion" `Quick test_callgraph_direct_recursion;
          Alcotest.test_case "mutual recursion" `Quick test_callgraph_mutual_recursion;
          Alcotest.test_case "no recursion" `Quick test_callgraph_no_recursion;
        ] );
    ]
