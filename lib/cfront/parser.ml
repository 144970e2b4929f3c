(** Recursive-descent parser for the C/C++/CUDA subset.

    The parser is *tolerant*: any top-level region it cannot parse is
    skipped (to the next balanced [;] or [}]) and recorded as
    [Ast.Tunparsed], the way fuzzy industrial analyzers such as Lizard
    behave.  Inside function bodies parsing is strict; a body that fails
    aborts only that definition.

    Type-vs-expression ambiguities (the classic [T * x;] problem) are
    resolved with a registry of known type names: every typedef, struct,
    class and enum seen so far registers its name, pre-seeded with common
    standard and CUDA type names. *)

exception Parse_error of string * Loc.t

type state = {
  toks : Token.table;
  last : int;  (** index of the final [Eof]; [pos] never passes it *)
  locs : Loc.t array;
      (** [locs.(i)] is token [i]'s location once a node has asked for
          it, [Loc.dummy] before *)
  tag : int;  (** [id_tag] of the unit's path *)
  mutable pos : int;
  mutable n_eids : int;
  mutable n_sids : int;
  mutable type_names : (string, unit) Hashtbl.t;
  mutable diags : string list;
  mutable pending_tops : Ast.top list;
      (** extra declarators of the top currently being parsed *)
  mutable cast_scan_steps : int;  (** tokens [looks_like_cast] examined *)
}

(* Expression/statement ids are dense per translation unit (0, 1, 2, ...
   in parse order) under a tag derived from the unit's path alone, so a
   parse is a function of its path and content: no process-global state,
   nothing shared between domains parsing concurrently. *)
let id_tag file = (Hashtbl.hash file land 0x3fffffff) lsl 32

let builtin_type_names =
  [
    "size_t"; "ssize_t"; "ptrdiff_t"; "int8_t"; "int16_t"; "int32_t";
    "int64_t"; "uint8_t"; "uint16_t"; "uint32_t"; "uint64_t"; "uintptr_t";
    "FILE"; "dim3"; "float2"; "float3"; "float4"; "cudaError_t";
    "cudaStream_t"; "string"; "std::string";
  ]

let make_state ~file (toks : Token.table) =
  let type_names = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace type_names n ()) builtin_type_names;
  let n = Token.length toks in
  { toks; last = n - 1; locs = Array.make n Loc.dummy; tag = id_tag file;
    pos = 0; n_eids = 0; n_sids = 0; type_names; diags = []; pending_tops = [];
    cast_scan_steps = 0 }

let cur_kind st = Token.kind st.toks st.pos
let advance st = if st.pos < st.last then st.pos <- st.pos + 1

let peek_kind_at st n = Token.kind st.toks (Stdlib.min (st.pos + n) st.last)

(* Nodes that start at the same token share one location, built when
   the first of them asks.  The tokens spliced in for one macro use all
   sit at the use's position and share the location of the first. *)
let rec first_at_position positions i =
  if i > 0 && positions.(i - 1) = positions.(i) then first_at_position positions (i - 1) else i

let loc_at st i =
  let i = first_at_position st.toks.Token.positions i in
  let l = st.locs.(i) in
  if l != Loc.dummy then l
  else begin
    let l = Token.loc st.toks i in
    st.locs.(i) <- l;
    l
  end

let cur_loc st = loc_at st st.pos

let err st msg = raise (Parse_error (msg, cur_loc st))

(* Location of the last consumed token: the closing brace of a body just
   parsed, used for function end lines. *)
let prev_loc st = loc_at st (Stdlib.max 0 (st.pos - 1))

let is_punct st p = match cur_kind st with Token.Punct q -> q = p | _ -> false
let is_keyword st k = match cur_kind st with Token.Keyword q -> q = k | _ -> false

let accept_punct st p = if is_punct st p then (advance st; true) else false
let accept_keyword st k = if is_keyword st k then (advance st; true) else false

let expect_punct st p =
  if not (accept_punct st p) then
    err st (Printf.sprintf "expected '%s', found %s" p (Token.kind_to_string (cur_kind st)))

let expect_keyword st k =
  if not (accept_keyword st k) then
    err st (Printf.sprintf "expected '%s', found %s" k (Token.kind_to_string (cur_kind st)))

let expect_ident st =
  match cur_kind st with
  | Token.Ident s -> advance st; s
  | _ -> err st (Printf.sprintf "expected identifier, found %s" (Token.kind_to_string (cur_kind st)))

let fresh_eid st =
  let id = st.tag lor st.n_eids in
  st.n_eids <- st.n_eids + 1;
  id

let fresh_sid st =
  let id = st.tag lor st.n_sids in
  st.n_sids <- st.n_sids + 1;
  id

let mk_expr st loc e = { Ast.e; eloc = loc; eid = fresh_eid st }
let mk_stmt st loc s = { Ast.s; sloc = loc; sid = fresh_sid st }

let register_type st name = Hashtbl.replace st.type_names name ()
let is_type_name st name = Hashtbl.mem st.type_names name

let type_keywords =
  [ "void"; "bool"; "char"; "short"; "int"; "long"; "float"; "double";
    "signed"; "unsigned"; "auto" ]

let qualifier_keywords =
  [ "const"; "volatile"; "static"; "extern"; "inline"; "virtual";
    "__global__"; "__device__"; "__host__"; "__shared__"; "__constant__";
    "__restrict__"; "struct"; "class"; "typename" ]

(** Does a declaration start at the current token?  Type keywords always do;
    an identifier does when it is a registered type name. *)
let at_type_start st =
  match cur_kind st with
  | Token.Keyword k -> List.mem k type_keywords || List.mem k qualifier_keywords
  | Token.Ident name ->
    (* qualified name A::B — check head segment too *)
    is_type_name st name
    || (match peek_kind_at st 1 with
        | Token.Punct "::" ->
          (match peek_kind_at st 2 with
           | Token.Ident n2 -> is_type_name st (name ^ "::" ^ n2)
           | _ -> false)
        | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

type decl_quals = {
  mutable q_const : bool;
  mutable q_static : bool;
  mutable q_extern : bool;
  mutable q_inline : bool;
  mutable q_virtual : bool;
  mutable q_global_fn : bool;
  mutable q_device : bool;
  mutable q_host : bool;
  mutable q_shared : bool;
  mutable q_constant : bool;
}

let fresh_quals () =
  { q_const = false; q_static = false; q_extern = false; q_inline = false;
    q_virtual = false; q_global_fn = false; q_device = false; q_host = false;
    q_shared = false; q_constant = false }

let rec eat_qualifiers st q =
  match cur_kind st with
  | Token.Keyword "const" -> advance st; q.q_const <- true; eat_qualifiers st q
  | Token.Keyword "volatile" -> advance st; eat_qualifiers st q
  | Token.Keyword "static" -> advance st; q.q_static <- true; eat_qualifiers st q
  | Token.Keyword "extern" ->
    advance st;
    (* extern "C" *)
    (match cur_kind st with Token.String_lit _ -> advance st | _ -> ());
    q.q_extern <- true;
    eat_qualifiers st q
  | Token.Keyword "inline" -> advance st; q.q_inline <- true; eat_qualifiers st q
  | Token.Keyword "virtual" -> advance st; q.q_virtual <- true; eat_qualifiers st q
  | Token.Keyword "__global__" -> advance st; q.q_global_fn <- true; eat_qualifiers st q
  | Token.Keyword "__device__" -> advance st; q.q_device <- true; eat_qualifiers st q
  | Token.Keyword "__host__" -> advance st; q.q_host <- true; eat_qualifiers st q
  | Token.Keyword "__shared__" -> advance st; q.q_shared <- true; eat_qualifiers st q
  | Token.Keyword "__constant__" -> advance st; q.q_constant <- true; eat_qualifiers st q
  | Token.Keyword "__restrict__" -> advance st; eat_qualifiers st q
  | _ -> ()

(** Parse a (possibly qualified, possibly template-instantiated) type name:
    [ns::Name<T1, T2>]. *)
let rec parse_named_type st =
  let first = expect_ident st in
  let rec qualify acc =
    if is_punct st "::" then begin
      advance st;
      let seg = expect_ident st in
      qualify (acc ^ "::" ^ seg)
    end
    else acc
  in
  let name = qualify first in
  if is_punct st "<" then begin
    advance st;
    let args = ref [] in
    if not (is_punct st ">") then begin
      args := [ parse_type st ];
      while accept_punct st "," do
        args := parse_type st :: !args
      done
    end;
    expect_punct st ">";
    Ast.Ttemplate (name, List.rev !args)
  end
  else Ast.Tnamed name

(** Parse a base type (specifier sequence without declarator). *)
and parse_base_type st =
  let quals = fresh_quals () in
  eat_qualifiers st quals;
  let base =
    match cur_kind st with
    | Token.Keyword "void" -> advance st; Ast.Tvoid
    | Token.Keyword "bool" -> advance st; Ast.Tbool
    | Token.Keyword "char" -> advance st; Ast.Tchar
    | Token.Keyword "float" -> advance st; Ast.Tfloat
    | Token.Keyword "double" -> advance st; Ast.Tdouble
    | Token.Keyword "auto" -> advance st; Ast.Tauto
    | Token.Keyword ("signed" | "unsigned" | "short" | "int" | "long") ->
      let unsigned = ref false in
      let width = ref `Int in
      let longs = ref 0 in
      let rec go () =
        match cur_kind st with
        | Token.Keyword "unsigned" -> unsigned := true; advance st; go ()
        | Token.Keyword "signed" -> advance st; go ()
        | Token.Keyword "short" -> width := `Short; advance st; go ()
        | Token.Keyword "long" ->
          incr longs;
          width := (if !longs >= 2 then `Longlong else `Long);
          advance st;
          go ()
        | Token.Keyword "int" -> advance st; go ()
        | _ -> ()
      in
      go ();
      Ast.Tint { unsigned = !unsigned; width = !width }
    | Token.Ident _ -> parse_named_type st
    | _ -> err st (Printf.sprintf "expected type, found %s" (Token.kind_to_string (cur_kind st)))
  in
  (* trailing const: [int const] *)
  let quals2 = fresh_quals () in
  eat_qualifiers st quals2;
  let base = if quals.q_const || quals2.q_const then Ast.Tconst base else base in
  (base, quals)

(** Pointer/reference declarator suffix: [*], [* const], [&]. *)
and parse_ptr_suffix st base =
  if is_punct st "*" then begin
    advance st;
    let _ = accept_keyword st "const" in
    let _ = accept_keyword st "__restrict__" in
    parse_ptr_suffix st (Ast.Tptr base)
  end
  else if is_punct st "&" then begin
    advance st;
    Ast.Tref base
  end
  else base

and parse_type st =
  let base, _ = parse_base_type st in
  parse_ptr_suffix st base

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let assign_op_of_punct = function
  | "=" -> Some Ast.A_eq
  | "+=" -> Some Ast.A_add
  | "-=" -> Some Ast.A_sub
  | "*=" -> Some Ast.A_mul
  | "/=" -> Some Ast.A_div
  | "%=" -> Some Ast.A_mod
  | "<<=" -> Some Ast.A_shl
  | ">>=" -> Some Ast.A_shr
  | "&=" -> Some Ast.A_and
  | "|=" -> Some Ast.A_or
  | "^=" -> Some Ast.A_xor
  | _ -> None

(** Is the parenthesized region starting at the current '(' a type cast?
    Only recognizes casts to built-in scalar types and registered type
    names (optionally with pointer stars). *)
let looks_like_cast st =
  (* current token is '(' *)
  let rec scan i depth saw_type =
    st.cast_scan_steps <- st.cast_scan_steps + 1;
    match peek_kind_at st i with
    | Token.Punct ")" when depth = 0 -> saw_type
    (* A type name never starts with '(' (a function-pointer cast such
       as [(void ( * )(int))] has seen [void] first).  Stopping here keeps
       the scan constant per level of a nested parenthesized expression,
       which would otherwise rescan every level inside it. *)
    | Token.Punct "(" when not saw_type -> false
    | Token.Punct "(" -> scan (i + 1) (depth + 1) saw_type
    | Token.Punct ")" -> scan (i + 1) (depth - 1) saw_type
    | Token.Keyword k when List.mem k type_keywords -> scan (i + 1) depth true
    | Token.Keyword ("const" | "unsigned" | "signed" | "struct") -> scan (i + 1) depth saw_type
    | Token.Ident name when saw_type = false && is_type_name st name ->
      scan (i + 1) depth true
    | Token.Punct ("*" | "&" | "::" | "<" | ">" | ",") when saw_type -> scan (i + 1) depth saw_type
    | Token.Punct "::" -> scan (i + 1) depth saw_type
    | _ -> false
  in
  scan 1 0 false

(* Binary operator precedence levels, loosest first. *)
let binop_levels =
  [|
    [ ("||", Ast.Lor) ];
    [ ("&&", Ast.Land) ];
    [ ("|", Ast.Bor) ];
    [ ("^", Ast.Bxor) ];
    [ ("&", Ast.Band) ];
    [ ("==", Ast.Eq); ("!=", Ast.Ne) ];
    [ ("<", Ast.Lt); (">", Ast.Gt); ("<=", Ast.Le); (">=", Ast.Ge) ];
    [ ("<<", Ast.Shl); (">>", Ast.Shr) ];
    [ ("+", Ast.Add); ("-", Ast.Sub) ];
    [ ("*", Ast.Mul); ("/", Ast.Div); ("%", Ast.Mod) ];
  |]

let rec parse_expr st = parse_comma st

and parse_comma st =
  let lhs = parse_assignment st in
  if is_punct st "," then begin
    let loc = cur_loc st in
    advance st;
    let rhs = parse_comma st in
    mk_expr st loc (Ast.Binary (Ast.Comma, lhs, rhs))
  end
  else lhs

and parse_assignment st =
  let lhs = parse_ternary st in
  match cur_kind st with
  | Token.Punct p ->
    (match assign_op_of_punct p with
     | Some op ->
       let loc = cur_loc st in
       advance st;
       let rhs = parse_assignment st in
       mk_expr st loc (Ast.Assign (op, lhs, rhs))
     | None -> lhs)
  | _ -> lhs

and parse_ternary st =
  let cond = parse_binary st 0 in
  if is_punct st "?" then begin
    let loc = cur_loc st in
    advance st;
    let then_ = parse_assignment st in
    expect_punct st ":";
    let else_ = parse_assignment st in
    mk_expr st loc (Ast.Ternary (cond, then_, else_))
  end
  else cond

and parse_binary st level =
  if level >= Array.length binop_levels then parse_unary st
  else begin
    let ops = binop_levels.(level) in
    let lhs = ref (parse_binary st (level + 1)) in
    let continue = ref true in
    while !continue do
      match cur_kind st with
      | Token.Punct p when List.mem_assoc p ops ->
        let loc = cur_loc st in
        advance st;
        let rhs = parse_binary st (level + 1) in
        lhs := mk_expr st loc (Ast.Binary (List.assoc p ops, !lhs, rhs))
      | _ -> continue := false
    done;
    !lhs
  end

and parse_unary st =
  let loc = cur_loc st in
  match cur_kind st with
  | Token.Punct "-" -> advance st; mk_expr st loc (Ast.Unary (Ast.Neg, parse_unary st))
  | Token.Punct "+" -> advance st; mk_expr st loc (Ast.Unary (Ast.Pos, parse_unary st))
  | Token.Punct "!" -> advance st; mk_expr st loc (Ast.Unary (Ast.Lnot, parse_unary st))
  | Token.Punct "~" -> advance st; mk_expr st loc (Ast.Unary (Ast.Bnot, parse_unary st))
  | Token.Punct "++" -> advance st; mk_expr st loc (Ast.Unary (Ast.Pre_inc, parse_unary st))
  | Token.Punct "--" -> advance st; mk_expr st loc (Ast.Unary (Ast.Pre_dec, parse_unary st))
  | Token.Punct "*" -> advance st; mk_expr st loc (Ast.Unary (Ast.Deref, parse_unary st))
  | Token.Punct "&" -> advance st; mk_expr st loc (Ast.Unary (Ast.Addr_of, parse_unary st))
  | Token.Keyword "sizeof" ->
    advance st;
    if is_punct st "(" && looks_like_cast st then begin
      expect_punct st "(";
      let ty = parse_type st in
      expect_punct st ")";
      mk_expr st loc (Ast.Sizeof_type ty)
    end
    else mk_expr st loc (Ast.Sizeof_expr (parse_unary st))
  | Token.Keyword "new" ->
    advance st;
    let ty = parse_type st in
    if accept_punct st "[" then begin
      let size = parse_expr st in
      expect_punct st "]";
      mk_expr st loc (Ast.New { ty; array_size = Some size; init_args = [] })
    end
    else if accept_punct st "(" then begin
      let args = parse_call_args st in
      mk_expr st loc (Ast.New { ty; array_size = None; init_args = args })
    end
    else mk_expr st loc (Ast.New { ty; array_size = None; init_args = [] })
  | Token.Keyword "delete" ->
    advance st;
    let array = accept_punct st "[" in
    if array then expect_punct st "]";
    let target = parse_unary st in
    mk_expr st loc (Ast.Delete { array; target })
  | Token.Keyword "throw" ->
    advance st;
    if is_punct st ";" then mk_expr st loc (Ast.Throw None)
    else mk_expr st loc (Ast.Throw (Some (parse_assignment st)))
  | Token.Keyword (("static_cast" | "dynamic_cast" | "const_cast" | "reinterpret_cast") as kw) ->
    advance st;
    let kind =
      match kw with
      | "static_cast" -> Ast.Static_cast
      | "dynamic_cast" -> Ast.Dynamic_cast
      | "const_cast" -> Ast.Const_cast
      | _ -> Ast.Reinterpret_cast
    in
    expect_punct st "<";
    let ty = parse_type st in
    expect_punct st ">";
    expect_punct st "(";
    let e = parse_expr st in
    expect_punct st ")";
    mk_expr st loc (Ast.Cpp_cast (kind, ty, e))
  | Token.Punct "(" when looks_like_cast st ->
    advance st;
    let ty = parse_type st in
    expect_punct st ")";
    let e = parse_unary st in
    mk_expr st loc (Ast.C_cast (ty, e))
  | _ -> parse_postfix st

and parse_call_args st =
  (* current token is just after '('; consumes the closing ')' *)
  let args = ref [] in
  if not (is_punct st ")") then begin
    args := [ parse_assignment st ];
    while accept_punct st "," do
      args := parse_assignment st :: !args
    done
  end;
  expect_punct st ")";
  List.rev !args

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    let loc = cur_loc st in
    match cur_kind st with
    | Token.Punct "(" ->
      advance st;
      let args = parse_call_args st in
      e := mk_expr st loc (Ast.Call (!e, args))
    | Token.Punct "<<<" ->
      advance st;
      let grid = parse_assignment st in
      expect_punct st ",";
      let block = parse_assignment st in
      (* optional shared-mem / stream args are parsed and dropped *)
      while accept_punct st "," do
        ignore (parse_assignment st)
      done;
      expect_punct st ">>>";
      expect_punct st "(";
      let args = parse_call_args st in
      e := mk_expr st loc (Ast.Kernel_launch { kernel = !e; grid; block; args })
    | Token.Punct "[" ->
      advance st;
      let idx = parse_expr st in
      expect_punct st "]";
      e := mk_expr st loc (Ast.Index (!e, idx))
    | Token.Punct "." ->
      advance st;
      let field = expect_ident st in
      e := mk_expr st loc (Ast.Member { obj = !e; arrow = false; field })
    | Token.Punct "->" ->
      advance st;
      let field = expect_ident st in
      e := mk_expr st loc (Ast.Member { obj = !e; arrow = true; field })
    | Token.Punct "++" ->
      advance st;
      e := mk_expr st loc (Ast.Postfix (Ast.Post_inc, !e))
    | Token.Punct "--" ->
      advance st;
      e := mk_expr st loc (Ast.Postfix (Ast.Post_dec, !e))
    | _ -> continue := false
  done;
  !e

and parse_primary st =
  let loc = cur_loc st in
  match cur_kind st with
  | Token.Int_lit (v, _) -> advance st; mk_expr st loc (Ast.Int_const v)
  | Token.Float_lit (v, _) -> advance st; mk_expr st loc (Ast.Float_const v)
  | Token.String_lit s -> advance st; mk_expr st loc (Ast.Str_const s)
  | Token.Char_lit c -> advance st; mk_expr st loc (Ast.Char_const c)
  | Token.Keyword "true" -> advance st; mk_expr st loc (Ast.Bool_const true)
  | Token.Keyword "false" -> advance st; mk_expr st loc (Ast.Bool_const false)
  | Token.Keyword "nullptr" -> advance st; mk_expr st loc Ast.Nullptr
  | Token.Keyword "this" -> advance st; mk_expr st loc (Ast.Id "this")
  | Token.Ident name ->
    advance st;
    let rec qualify acc =
      if is_punct st "::" then begin
        advance st;
        let seg = expect_ident st in
        qualify (acc ^ "::" ^ seg)
      end
      else acc
    in
    mk_expr st loc (Ast.Id (qualify name))
  | Token.Punct "(" ->
    advance st;
    let e = parse_expr st in
    expect_punct st ")";
    e
  | _ -> err st (Printf.sprintf "expected expression, found %s" (Token.kind_to_string (cur_kind st)))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Parse declarators after a base type: [x = e, *p, arr[10]].  Consumes up
    to but not including the terminator. *)
let rec parse_declarators st base =
  let one () =
    let ty = parse_ptr_suffix st base in
    let loc = cur_loc st in
    let name = expect_ident st in
    let ty = ref ty in
    while is_punct st "[" do
      advance st;
      let size =
        match cur_kind st with
        | Token.Int_lit (v, _) -> advance st; Some (Int64.to_int v)
        | Token.Punct "]" -> None
        | _ ->
          (* non-constant array size: record as dynamic-extent array *)
          let _ = parse_expr st in
          None
      in
      expect_punct st "]";
      ty := Ast.Tarray (!ty, size)
    done;
    let init =
      if accept_punct st "=" then Some (parse_assignment st)
      else if is_punct st "(" then begin
        (* constructor-style init: [Foo x(1, 2)] — keep first arg as init *)
        advance st;
        let args = parse_call_args st in
        match args with [] -> None | a :: _ -> Some a
      end
      else if is_punct st "{" then begin
        advance st;
        let args = if is_punct st "}" then [] else
            let a = ref [ parse_assignment st ] in
            (while accept_punct st "," do a := parse_assignment st :: !a done; List.rev !a)
        in
        expect_punct st "}";
        match args with [] -> None | a :: _ -> Some a
      end
      else None
    in
    { Ast.v_name = name; v_type = !ty; v_init = init; v_loc = loc }
  in
  let first = one () in
  let rest = ref [ first ] in
  while accept_punct st "," do
    rest := one () :: !rest
  done;
  List.rev !rest

and parse_decl_stmt st =
  let quals = fresh_quals () in
  eat_qualifiers st quals;
  let base, _ = parse_base_type st in
  let base = if quals.q_const then Ast.Tconst base else base in
  let decls = parse_declarators st base in
  expect_punct st ";";
  decls

and parse_stmt st =
  let loc = cur_loc st in
  match cur_kind st with
  | Token.Punct "{" ->
    advance st;
    let stmts = ref [] in
    while not (is_punct st "}") do
      if cur_kind st = Token.Eof then err st "unterminated block";
      stmts := parse_stmt st :: !stmts
    done;
    expect_punct st "}";
    mk_stmt st loc (Ast.Sblock (List.rev !stmts))
  | Token.Punct ";" -> advance st; mk_stmt st loc Ast.Sempty
  | Token.Keyword "if" ->
    advance st;
    expect_punct st "(";
    let cond = parse_expr st in
    expect_punct st ")";
    let then_ = parse_stmt st in
    let else_ = if accept_keyword st "else" then Some (parse_stmt st) else None in
    mk_stmt st loc (Ast.Sif { cond; then_; else_ })
  | Token.Keyword "while" ->
    advance st;
    expect_punct st "(";
    let cond = parse_expr st in
    expect_punct st ")";
    let body = parse_stmt st in
    mk_stmt st loc (Ast.Swhile (cond, body))
  | Token.Keyword "do" ->
    advance st;
    let body = parse_stmt st in
    expect_keyword st "while";
    expect_punct st "(";
    let cond = parse_expr st in
    expect_punct st ")";
    expect_punct st ";";
    mk_stmt st loc (Ast.Sdo_while (body, cond))
  | Token.Keyword "for" ->
    advance st;
    expect_punct st "(";
    let init =
      if is_punct st ";" then (advance st; Ast.Fi_empty)
      else if at_type_start st then begin
        let quals = fresh_quals () in
        eat_qualifiers st quals;
        let base, _ = parse_base_type st in
        let decls = parse_declarators st base in
        expect_punct st ";";
        Ast.Fi_decl decls
      end
      else begin
        let e = parse_expr st in
        expect_punct st ";";
        Ast.Fi_expr e
      end
    in
    let cond = if is_punct st ";" then None else Some (parse_expr st) in
    expect_punct st ";";
    let update = if is_punct st ")" then None else Some (parse_expr st) in
    expect_punct st ")";
    let body = parse_stmt st in
    mk_stmt st loc (Ast.Sfor { init; cond; update; body })
  | Token.Keyword "switch" ->
    advance st;
    expect_punct st "(";
    let e = parse_expr st in
    expect_punct st ")";
    let body = parse_stmt st in
    mk_stmt st loc (Ast.Sswitch (e, body))
  | Token.Keyword "case" ->
    advance st;
    let e = parse_ternary st in
    expect_punct st ":";
    mk_stmt st loc (Ast.Scase e)
  | Token.Keyword "default" ->
    advance st;
    expect_punct st ":";
    mk_stmt st loc Ast.Sdefault
  | Token.Keyword "break" -> advance st; expect_punct st ";"; mk_stmt st loc Ast.Sbreak
  | Token.Keyword "continue" -> advance st; expect_punct st ";"; mk_stmt st loc Ast.Scontinue
  | Token.Keyword "return" ->
    advance st;
    let e = if is_punct st ";" then None else Some (parse_expr st) in
    expect_punct st ";";
    mk_stmt st loc (Ast.Sreturn e)
  | Token.Keyword "goto" ->
    advance st;
    let label = expect_ident st in
    expect_punct st ";";
    mk_stmt st loc (Ast.Sgoto label)
  | Token.Keyword "try" ->
    advance st;
    let body = parse_stmt st in
    let catches = ref [] in
    while is_keyword st "catch" do
      advance st;
      expect_punct st "(";
      (* catch parameter: a type with optional name, or "..." *)
      let param_desc =
        if accept_punct st "..." then "..."
        else begin
          let ty = parse_type st in
          let name = match cur_kind st with
            | Token.Ident n -> advance st; " " ^ n
            | _ -> ""
          in
          Ast.type_to_string ty ^ name
        end
      in
      expect_punct st ")";
      let handler = parse_stmt st in
      catches := (param_desc, handler) :: !catches
    done;
    mk_stmt st loc (Ast.Stry { body; catches = List.rev !catches })
  | Token.Keyword "throw" ->
    let e = parse_expr st in
    expect_punct st ";";
    mk_stmt st loc (Ast.Sexpr e)
  | Token.Ident name when (match peek_kind_at st 1 with Token.Punct ":" -> true | _ -> false)
                          && not (is_type_name st name) ->
    (* goto label *)
    advance st;
    advance st;
    let inner = parse_stmt st in
    mk_stmt st loc (Ast.Slabel (name, inner))
  | _ when at_type_start st && not (is_keyword st "struct") && not (is_keyword st "class") ->
    let decls = parse_decl_stmt st in
    mk_stmt st loc (Ast.Sdecl decls)
  | _ ->
    let e = parse_expr st in
    expect_punct st ";";
    mk_stmt st loc (Ast.Sexpr e)

(* ------------------------------------------------------------------ *)
(* Top-level declarations                                              *)
(* ------------------------------------------------------------------ *)

let quals_to_func_quals q =
  List.concat
    [
      (if q.q_global_fn then [ Ast.Q_global ] else []);
      (if q.q_device then [ Ast.Q_device ] else []);
      (if q.q_host then [ Ast.Q_host ] else []);
      (if q.q_static then [ Ast.Q_static ] else []);
      (if q.q_inline then [ Ast.Q_inline ] else []);
      (if q.q_virtual then [ Ast.Q_virtual ] else []);
      (if q.q_extern then [ Ast.Q_extern ] else []);
    ]

let parse_params st =
  (* after '('; consumes ')' *)
  let params = ref [] in
  if not (is_punct st ")") then begin
    let one () =
      if accept_punct st "..." then { Ast.p_name = "..."; p_type = Ast.Tvoid }
      else begin
        let ty = parse_type st in
        let name =
          match cur_kind st with
          | Token.Ident n -> advance st; n
          | _ -> ""
        in
        let ty = ref ty in
        while is_punct st "[" do
          advance st;
          (match cur_kind st with
           | Token.Int_lit (v, _) -> advance st; ty := Ast.Tarray (!ty, Some (Int64.to_int v))
           | _ -> ty := Ast.Tarray (!ty, None));
          expect_punct st "]"
        done;
        (* default argument *)
        if accept_punct st "=" then ignore (parse_assignment st);
        { Ast.p_name = name; p_type = !ty }
      end
    in
    params := [ one () ];
    while accept_punct st "," do
      params := one () :: !params
    done
  end;
  expect_punct st ")";
  List.rev !params

(** Skip a constructor initializer list [: a_(x), b_(y)] up to '{'. *)
let skip_ctor_initializers st =
  if accept_punct st ":" then begin
    let rec go () =
      if is_punct st "{" || cur_kind st = Token.Eof then ()
      else begin
        advance st;
        go ()
      end
    in
    go ()
  end

let split_qualified name =
  match String.split_on_char ':' name with
  | [ simple ] -> ([], simple)
  | parts ->
    let parts = List.filter (fun s -> s <> "") parts in
    (match List.rev parts with
     | last :: scope_rev -> (List.rev scope_rev, last)
     | [] -> ([], name))

let rec parse_record st scope kind =
  (* after 'struct'/'class' keyword *)
  let loc = cur_loc st in
  let name = expect_ident st in
  register_type st name;
  if accept_punct st ";" then
    (* forward declaration *)
    Ast.Trecord { r_name = name; r_kind = kind; r_scope = scope; r_fields = []; r_methods = []; r_loc = loc }
  else begin
    (* optional base class *)
    if accept_punct st ":" then begin
      let rec skip_bases () =
        match cur_kind st with
        | Token.Punct "{" -> ()
        | _ -> advance st; skip_bases ()
      in
      skip_bases ()
    end;
    expect_punct st "{";
    let fields = ref [] in
    let methods = ref [] in
    let access = ref (match kind with Ast.Rstruct -> Ast.Pub | Ast.Rclass -> Ast.Priv) in
    while not (is_punct st "}") do
      if cur_kind st = Token.Eof then err st "unterminated record";
      match cur_kind st with
      | Token.Keyword "public" -> advance st; expect_punct st ":"; access := Ast.Pub
      | Token.Keyword "private" -> advance st; expect_punct st ":"; access := Ast.Priv
      | Token.Keyword "protected" -> advance st; expect_punct st ":"; access := Ast.Prot
      | Token.Ident ctor_name when ctor_name = name
                                   && (match peek_kind_at st 1 with Token.Punct "(" -> true | _ -> false) ->
        (* constructor *)
        let mloc = cur_loc st in
        advance st;
        expect_punct st "(";
        let params = parse_params st in
        skip_ctor_initializers st;
        let body =
          if is_punct st "{" then Some (parse_stmt st)
          else (expect_punct st ";"; None)
        in
        methods :=
          { Ast.f_name = name; f_scope = scope @ [ name ]; f_quals = [];
            f_ret = Ast.Tvoid; f_params = params; f_body = body; f_loc = mloc;
            f_end_line = (prev_loc st).Loc.line }
          :: !methods
      | Token.Punct "~" ->
        (* destructor *)
        let mloc = cur_loc st in
        advance st;
        let dname = expect_ident st in
        expect_punct st "(";
        let params = parse_params st in
        let body =
          if is_punct st "{" then Some (parse_stmt st)
          else (expect_punct st ";"; None)
        in
        methods :=
          { Ast.f_name = "~" ^ dname; f_scope = scope @ [ name ]; f_quals = [];
            f_ret = Ast.Tvoid; f_params = params; f_body = body; f_loc = mloc;
            f_end_line = (prev_loc st).Loc.line }
          :: !methods
      | _ ->
        let quals = fresh_quals () in
        eat_qualifiers st quals;
        let base, q2 = parse_base_type st in
        ignore q2;
        let base = if quals.q_const then Ast.Tconst base else base in
        let ty = parse_ptr_suffix st base in
        let mloc = cur_loc st in
        let mname = expect_ident st in
        if is_punct st "(" then begin
          advance st;
          let params = parse_params st in
          let _ = accept_keyword st "const" in
          let _ = accept_keyword st "override" in
          let body =
            if is_punct st "{" then Some (parse_stmt st)
            else if accept_punct st "=" then begin
              (* pure virtual "= 0" or "= default" *)
              (match cur_kind st with
               | Token.Int_lit _ | Token.Ident _ | Token.Keyword _ -> advance st
               | _ -> ());
              expect_punct st ";";
              None
            end
            else (expect_punct st ";"; None)
          in
          methods :=
            { Ast.f_name = mname; f_scope = scope @ [ name ];
              f_quals = quals_to_func_quals quals; f_ret = ty; f_params = params;
              f_body = body; f_loc = mloc; f_end_line = (prev_loc st).Loc.line }
            :: !methods
        end
        else begin
          let ty = ref ty in
          while is_punct st "[" do
            advance st;
            (match cur_kind st with
             | Token.Int_lit (v, _) -> advance st; ty := Ast.Tarray (!ty, Some (Int64.to_int v))
             | _ -> ty := Ast.Tarray (!ty, None));
            expect_punct st "]"
          done;
          let init = if accept_punct st "=" then Some (parse_assignment st) else None in
          fields := (!access, { Ast.v_name = mname; v_type = !ty; v_init = init; v_loc = mloc }) :: !fields;
          (* possible extra declarators *)
          while accept_punct st "," do
            let ty2 = parse_ptr_suffix st base in
            let n2loc = cur_loc st in
            let n2 = expect_ident st in
            let init2 = if accept_punct st "=" then Some (parse_assignment st) else None in
            fields := (!access, { Ast.v_name = n2; v_type = ty2; v_init = init2; v_loc = n2loc }) :: !fields
          done;
          expect_punct st ";"
        end
    done;
    expect_punct st "}";
    expect_punct st ";";
    Ast.Trecord
      { r_name = name; r_kind = kind; r_scope = scope;
        r_fields = List.rev !fields; r_methods = List.rev !methods; r_loc = loc }
  end

and parse_enum st =
  let loc = cur_loc st in
  (* optional "class" *)
  let _ = accept_keyword st "class" in
  let name = match cur_kind st with Token.Ident n -> advance st; n | _ -> "" in
  if name <> "" then register_type st name;
  expect_punct st "{";
  let items = ref [] in
  while not (is_punct st "}") do
    let iname = expect_ident st in
    let value =
      if accept_punct st "=" then
        match cur_kind st with
        | Token.Int_lit (v, _) -> advance st; Some (Int64.to_int v)
        | _ ->
          let _ = parse_ternary st in
          None
      else None
    in
    items := (iname, value) :: !items;
    ignore (accept_punct st ",")
  done;
  expect_punct st "}";
  expect_punct st ";";
  Ast.Tenum { en_name = name; en_items = List.rev !items; en_loc = loc }

and parse_top st scope =
  match cur_kind st with
  | Token.Keyword "namespace" ->
    advance st;
    let name = match cur_kind st with Token.Ident n -> advance st; n | _ -> "" in
    expect_punct st "{";
    let tops = ref [] in
    while not (is_punct st "}") do
      if cur_kind st = Token.Eof then err st "unterminated namespace";
      tops := parse_top_tolerant st (scope @ [ name ]) :: !tops
    done;
    expect_punct st "}";
    let _ = accept_punct st ";" in
    Ast.Tnamespace (name, List.rev !tops)
  | Token.Keyword "using" ->
    advance st;
    let _ = accept_keyword st "namespace" in
    let buf = Buffer.create 16 in
    while not (is_punct st ";") do
      Buffer.add_string buf (Token.spelling (cur_kind st));
      advance st
    done;
    expect_punct st ";";
    Ast.Tusing (Buffer.contents buf)
  | Token.Keyword "typedef" ->
    advance st;
    let ty = parse_type st in
    let name = expect_ident st in
    register_type st name;
    expect_punct st ";";
    Ast.Ttypedef (name, ty)
  | Token.Keyword "template" ->
    (* skip the template parameter list, then parse the declaration *)
    advance st;
    expect_punct st "<";
    let depth = ref 1 in
    while !depth > 0 do
      (match cur_kind st with
       | Token.Punct "<" -> incr depth
       | Token.Punct ">" -> decr depth
       | Token.Eof -> err st "unterminated template header"
       | _ -> ());
      advance st
    done;
    parse_top st scope
  | Token.Keyword "struct" when (match peek_kind_at st 2 with
                                 | Token.Punct ("{" | ";" | ":") -> true
                                 | _ -> false) ->
    advance st;
    parse_record st scope Ast.Rstruct
  | Token.Keyword "class" ->
    advance st;
    parse_record st scope Ast.Rclass
  | Token.Keyword "enum" -> advance st; parse_enum st
  | _ ->
    (* function or global variable *)
    let quals = fresh_quals () in
    eat_qualifiers st quals;
    let base, bquals = parse_base_type st in
    let merge a b =
      a.q_const <- a.q_const || b.q_const;
      a.q_static <- a.q_static || b.q_static;
      a.q_extern <- a.q_extern || b.q_extern;
      a.q_inline <- a.q_inline || b.q_inline;
      a.q_virtual <- a.q_virtual || b.q_virtual;
      a.q_global_fn <- a.q_global_fn || b.q_global_fn;
      a.q_device <- a.q_device || b.q_device;
      a.q_host <- a.q_host || b.q_host;
      a.q_shared <- a.q_shared || b.q_shared;
      a.q_constant <- a.q_constant || b.q_constant
    in
    merge quals bquals;
    let base = if quals.q_const then Ast.Tconst base else base in
    let ty = parse_ptr_suffix st base in
    let loc = cur_loc st in
    let raw_name =
      let first = expect_ident st in
      let rec qualify acc =
        if is_punct st "::" then begin
          advance st;
          let seg = expect_ident st in
          qualify (acc ^ "::" ^ seg)
        end
        else acc
      in
      qualify first
    in
    let extra_scope, simple_name = split_qualified raw_name in
    if is_punct st "(" then begin
      advance st;
      let params = parse_params st in
      let _ = accept_keyword st "const" in
      let _ = accept_keyword st "override" in
      let body =
        if is_punct st "{" then Some (parse_stmt st)
        else (expect_punct st ";"; None)
      in
      Ast.Tfunc
        { f_name = simple_name; f_scope = scope @ extra_scope;
          f_quals = quals_to_func_quals quals; f_ret = ty; f_params = params;
          f_body = body; f_loc = loc; f_end_line = (prev_loc st).Loc.line }
    end
    else begin
      let ty = ref ty in
      while is_punct st "[" do
        advance st;
        (match cur_kind st with
         | Token.Int_lit (v, _) -> advance st; ty := Ast.Tarray (!ty, Some (Int64.to_int v))
         | _ -> ty := Ast.Tarray (!ty, None));
        expect_punct st "]"
      done;
      let init = if accept_punct st "=" then Some (parse_assignment st) else None in
      (* extra declarators become additional globals; only the first is
         returned here, the rest are queued *)
      let decl = { Ast.v_name = simple_name; v_type = !ty; v_init = init; v_loc = loc } in
      let extras = ref [] in
      while accept_punct st "," do
        let ty2 = parse_ptr_suffix st base in
        let loc2 = cur_loc st in
        let n2 = expect_ident st in
        let init2 = if accept_punct st "=" then Some (parse_assignment st) else None in
        extras := { Ast.v_name = n2; v_type = ty2; v_init = init2; v_loc = loc2 } :: !extras
      done;
      expect_punct st ";";
      let mk d =
        { Ast.g_decl = d; g_static = quals.q_static;
          g_const = quals.q_const || (match d.Ast.v_type with Ast.Tconst _ -> true | _ -> false);
          g_extern = quals.q_extern; g_scope = scope @ extra_scope;
          g_device = quals.q_device || quals.q_constant }
      in
      (match List.rev !extras with
       | [] -> Ast.Tglobal (mk decl)
       | more ->
         (* represent multiple global declarators as a namespace-less group:
            main decl returned, extras appended through the pending queue *)
         st.pending_tops <-
           List.map (fun d -> Ast.Tglobal (mk d)) more @ st.pending_tops;
         Ast.Tglobal (mk decl))
    end

(** Tolerant wrapper: on parse error, skip to a balanced sync point. *)
and parse_top_tolerant st scope =
  let start = st.pos in
  try parse_top st scope
  with Parse_error (msg, loc) ->
    st.diags <- Printf.sprintf "%s: %s" (Loc.to_string loc) msg :: st.diags;
    st.pos <- start;
    let depth = ref 0 in
    let continue = ref true in
    while !continue do
      (match cur_kind st with
       | Token.Eof -> continue := false
       | Token.Punct "{" -> incr depth; advance st
       | Token.Punct "}" ->
         decr depth;
         advance st;
         if !depth <= 0 then begin
           let _ = accept_punct st ";" in
           continue := false
         end
       | Token.Punct ";" when !depth = 0 -> advance st; continue := false
       | _ -> advance st)
    done;
    Ast.Tunparsed { loc = cur_loc st; tokens_skipped = st.pos - start }

(* The front half of [parse_file]: preprocess, lex once, expand
   object-like macros.  Only what the parse and the unit need is kept. *)
type lexed = {
  lx_file : string;
  lx_source : string;
  lx_tokens : Token.table;
  lx_directives : (int * Preproc.directive) list;
  lx_comment_lines : int;
  lx_diags : string list;
}

let lex_file ~file source =
  let pre = Preproc.run ~file source in
  let names = Token.names () in
  let lexed = Lexer.tokenize_with names ~file pre.Preproc.text in
  let defines =
    List.filter_map
      (fun (_, d) ->
        match d with
        | Preproc.Define { name; body; function_like = false } when body <> "" ->
          Some (name, body)
        | _ -> None)
      pre.Preproc.directives
  in
  {
    lx_file = file;
    lx_source = source;
    lx_tokens = Preproc.expand_macros ~names ~defines lexed.Lexer.tokens;
    lx_directives = pre.Preproc.directives;
    lx_comment_lines = lexed.Lexer.comment_lines;
    lx_diags = lexed.Lexer.diagnostics @ pre.Preproc.diagnostics;
  }

let parse_lexed ?(extra_types = []) lx =
  let st = make_state ~file:lx.lx_file lx.lx_tokens in
  List.iter (register_type st) extra_types;
  let tops = ref [] in
  while cur_kind st <> Token.Eof do
    st.pending_tops <- [];
    let top = parse_top_tolerant st [] in
    tops := List.rev_append st.pending_tops (top :: !tops)
  done;
  Telemetry.add "parse.cast_scan_steps" st.cast_scan_steps;
  {
    Ast.tu_file = lx.lx_file;
    tops = List.rev !tops;
    tokens = lx.lx_tokens;
    raw_source = lx.lx_source;
    comment_lines = lx.lx_comment_lines;
    directives = lx.lx_directives;
    diags = List.rev_append st.diags lx.lx_diags;
    n_exprs = st.n_eids;
    n_stmts = st.n_sids;
  }

(** Parse a whole translation unit from source text.  [extra_types] seeds
    the type-name registry — the stand-in for types that would arrive via
    a header include. *)
let parse_file ?extra_types ~file source =
  parse_lexed ?extra_types (lex_file ~file source)

(** Parse an expression in isolation (used by tests). *)
let parse_expr_string src =
  let lexed = Lexer.tokenize ~file:"<expr>" src in
  let st = make_state ~file:"<expr>" lexed.Lexer.tokens in
  parse_expr st
