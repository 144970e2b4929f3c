(** Abstract syntax for the C/C++/CUDA subset.

    Every expression and statement node carries a unique (per translation
    unit) id, assigned by the parser; the coverage instrumenter keys its
    counters on these ids. *)

type ctype =
  | Tvoid
  | Tbool
  | Tchar
  | Tint of { unsigned : bool; width : [ `Short | `Int | `Long | `Longlong ] }
  | Tfloat
  | Tdouble
  | Tnamed of string  (** struct/class/typedef/enum name, possibly qualified *)
  | Ttemplate of string * ctype list  (** e.g. [vector<float>] *)
  | Tptr of ctype
  | Tref of ctype
  | Tarray of ctype * int option
  | Tconst of ctype
  | Tauto

let int_t = Tint { unsigned = false; width = `Int }

type unop =
  | Neg | Pos | Lnot | Bnot | Pre_inc | Pre_dec | Deref | Addr_of

type postop = Post_inc | Post_dec

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Gt | Le | Ge | Eq | Ne
  | Band | Bxor | Bor
  | Land | Lor
  | Comma

type assign_op =
  | A_eq | A_add | A_sub | A_mul | A_div | A_mod | A_shl | A_shr
  | A_and | A_or | A_xor

type cpp_cast = Static_cast | Dynamic_cast | Const_cast | Reinterpret_cast

type expr = { e : expr_desc; eloc : Loc.t; eid : int }

and expr_desc =
  | Int_const of int64
  | Float_const of float
  | Bool_const of bool
  | Str_const of string
  | Char_const of char
  | Nullptr
  | Id of string
  | Unary of unop * expr
  | Postfix of postop * expr
  | Binary of binop * expr * expr
  | Assign of assign_op * expr * expr
  | Ternary of expr * expr * expr
  | Call of expr * expr list
  | Kernel_launch of { kernel : expr; grid : expr; block : expr; args : expr list }
  | Index of expr * expr
  | Member of { obj : expr; arrow : bool; field : string }
  | C_cast of ctype * expr
  | Cpp_cast of cpp_cast * ctype * expr
  | Sizeof_type of ctype
  | Sizeof_expr of expr
  | New of { ty : ctype; array_size : expr option; init_args : expr list }
  | Delete of { array : bool; target : expr }
  | Throw of expr option

type var_decl = {
  v_name : string;
  v_type : ctype;
  v_init : expr option;
  v_loc : Loc.t;
}

type for_init =
  | Fi_decl of var_decl list
  | Fi_expr of expr
  | Fi_empty

type stmt = { s : stmt_desc; sloc : Loc.t; sid : int }

and stmt_desc =
  | Sexpr of expr
  | Sempty
  | Sdecl of var_decl list
  | Sblock of stmt list
  | Sif of { cond : expr; then_ : stmt; else_ : stmt option }
  | Swhile of expr * stmt
  | Sdo_while of stmt * expr
  | Sfor of { init : for_init; cond : expr option; update : expr option; body : stmt }
  | Sswitch of expr * stmt
  | Scase of expr
  | Sdefault
  | Sbreak
  | Scontinue
  | Sreturn of expr option
  | Sgoto of string
  | Slabel of string * stmt
  | Stry of { body : stmt; catches : (string * stmt) list }

type func_qual =
  | Q_global  (** CUDA [__global__] kernel *)
  | Q_device  (** CUDA [__device__] *)
  | Q_host
  | Q_static
  | Q_inline
  | Q_virtual
  | Q_extern

type param = { p_name : string; p_type : ctype }

type func = {
  f_name : string;  (** unqualified *)
  f_scope : string list;  (** enclosing namespaces / class names, outermost first *)
  f_quals : func_qual list;
  f_ret : ctype;
  f_params : param list;
  f_body : stmt option;  (** [None] for a prototype *)
  f_loc : Loc.t;
  f_end_line : int;
}

type record_kind = Rstruct | Rclass

type access = Pub | Priv | Prot

type record = {
  r_name : string;
  r_kind : record_kind;
  r_scope : string list;
  r_fields : (access * var_decl) list;
  r_methods : func list;
  r_loc : Loc.t;
}

type global_var = {
  g_decl : var_decl;
  g_static : bool;
  g_const : bool;
  g_extern : bool;
  g_scope : string list;
  g_device : bool;  (** CUDA [__device__]/[__constant__] variable *)
}

type enum_def = { en_name : string; en_items : (string * int option) list; en_loc : Loc.t }

type top =
  | Tfunc of func
  | Trecord of record
  | Tglobal of global_var
  | Ttypedef of string * ctype
  | Tenum of enum_def
  | Tnamespace of string * top list
  | Tusing of string
  | Tunparsed of { loc : Loc.t; tokens_skipped : int }

(** A parsed translation unit.  [tokens] (post-macro-expansion) and
    [raw_source] are retained because several checkers work at the token or
    text level rather than on the tree. *)
type tu = {
  tu_file : string;
  tops : top list;
  tokens : Token.table;
  raw_source : string;
  comment_lines : int;
  directives : (int * Preproc.directive) list;
  diags : string list;
  n_exprs : int;
      (** expression nodes; their ids are [Parser.id_tag tu_file lor i]
          for [i] in [0, n_exprs) *)
  n_stmts : int;  (** statement nodes, numbered the same way *)
}

(** Fully-qualified function name, e.g. ["perception::Detector::Resize"]. *)
let qualified_name (f : func) = String.concat "::" (f.f_scope @ [ f.f_name ])

let rec iter_tops f tops =
  List.iter
    (fun top ->
      f top;
      match top with Tnamespace (_, inner) -> iter_tops f inner | _ -> ())
    tops

(** All function definitions and prototypes in a TU, including methods and
    those nested in namespaces. *)
let functions_of_tu tu =
  let acc = ref [] in
  iter_tops
    (fun top ->
      match top with
      | Tfunc fn -> acc := fn :: !acc
      | Trecord r -> List.iter (fun m -> acc := m :: !acc) r.r_methods
      | _ -> ())
    tu.tops;
  List.rev !acc

let globals_of_tu tu =
  let acc = ref [] in
  iter_tops (fun top -> match top with Tglobal g -> acc := g :: !acc | _ -> ()) tu.tops;
  List.rev !acc

(** Can carry hidden state: not const, and not extern (counted where defined). *)
let is_mutable_global g = (not g.g_const) && not g.g_extern

let records_of_tu tu =
  let acc = ref [] in
  iter_tops (fun top -> match top with Trecord r -> acc := r :: !acc | _ -> ()) tu.tops;
  List.rev !acc

(** Depth-first traversal of the statements of a function body. *)
let rec iter_stmts fstmt stmt =
  fstmt stmt;
  match stmt.s with
  | Sblock ss -> List.iter (iter_stmts fstmt) ss
  | Sif { then_; else_; _ } ->
    iter_stmts fstmt then_;
    Option.iter (iter_stmts fstmt) else_
  | Swhile (_, body) | Sdo_while (body, _) -> iter_stmts fstmt body
  | Sfor { body; _ } -> iter_stmts fstmt body
  | Sswitch (_, body) -> iter_stmts fstmt body
  | Slabel (_, body) -> iter_stmts fstmt body
  | Stry { body; catches } ->
    iter_stmts fstmt body;
    List.iter (fun (_, s) -> iter_stmts fstmt s) catches
  | Sexpr _ | Sempty | Sdecl _ | Scase _ | Sdefault | Sbreak | Scontinue
  | Sreturn _ | Sgoto _ -> ()

(** Depth-first traversal of every expression under a statement, including
    initializers and control conditions. *)
let rec iter_exprs_of_expr fexpr expr =
  fexpr expr;
  match expr.e with
  | Int_const _ | Float_const _ | Bool_const _ | Str_const _ | Char_const _
  | Nullptr | Id _ | Sizeof_type _ -> ()
  | Unary (_, e) | Postfix (_, e) | C_cast (_, e) | Cpp_cast (_, _, e)
  | Sizeof_expr e | Delete { target = e; _ } ->
    iter_exprs_of_expr fexpr e
  | Throw e -> Option.iter (iter_exprs_of_expr fexpr) e
  | Binary (_, a, b) | Assign (_, a, b) | Index (a, b) ->
    iter_exprs_of_expr fexpr a;
    iter_exprs_of_expr fexpr b
  | Ternary (a, b, c) ->
    iter_exprs_of_expr fexpr a;
    iter_exprs_of_expr fexpr b;
    iter_exprs_of_expr fexpr c
  | Call (f, args) ->
    iter_exprs_of_expr fexpr f;
    List.iter (iter_exprs_of_expr fexpr) args
  | Kernel_launch { kernel; grid; block; args } ->
    iter_exprs_of_expr fexpr kernel;
    iter_exprs_of_expr fexpr grid;
    iter_exprs_of_expr fexpr block;
    List.iter (iter_exprs_of_expr fexpr) args
  | Member { obj; _ } -> iter_exprs_of_expr fexpr obj
  | New { array_size; init_args; _ } ->
    Option.iter (iter_exprs_of_expr fexpr) array_size;
    List.iter (iter_exprs_of_expr fexpr) init_args

let iter_exprs_of_stmt fexpr stmt =
  let on_decls ds = List.iter (fun d -> Option.iter (iter_exprs_of_expr fexpr) d.v_init) ds in
  iter_stmts
    (fun s ->
      match s.s with
      | Sexpr e -> iter_exprs_of_expr fexpr e
      | Sdecl ds -> on_decls ds
      | Sif { cond; _ } -> iter_exprs_of_expr fexpr cond
      | Swhile (c, _) | Sdo_while (_, c) -> iter_exprs_of_expr fexpr c
      | Sfor { init; cond; update; _ } ->
        (match init with
         | Fi_decl ds -> on_decls ds
         | Fi_expr e -> iter_exprs_of_expr fexpr e
         | Fi_empty -> ());
        Option.iter (iter_exprs_of_expr fexpr) cond;
        Option.iter (iter_exprs_of_expr fexpr) update
      | Sswitch (e, _) | Scase e -> iter_exprs_of_expr fexpr e
      | Sreturn (Some e) -> iter_exprs_of_expr fexpr e
      | Sreturn None | Sempty | Sblock _ | Sdefault | Sbreak | Scontinue
      | Sgoto _ | Slabel _ | Stry _ -> ())
    stmt

let iter_exprs_of_func fexpr (fn : func) =
  Option.iter (iter_exprs_of_stmt fexpr) fn.f_body

(** Every name a function can bind locally — parameters first, then
    declared variables in statement order, each name once (first
    occurrence wins).  Because the interpreter's frame pushes bindings
    and never pops them, the newest binding of a name is the only one
    ever visible, so a compiler may assign each name a single local
    slot; this is the slot-index domain used by the coverage bytecode
    engine. *)
let local_names_of_func (fn : func) =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      acc := name :: !acc
    end
  in
  List.iter (fun p -> add p.p_name) fn.f_params;
  Option.iter
    (iter_stmts (fun s ->
         match s.s with
         | Sdecl ds -> List.iter (fun d -> add d.v_name) ds
         | Sfor { init = Fi_decl ds; _ } -> List.iter (fun d -> add d.v_name) ds
         | _ -> ()))
    fn.f_body;
  List.rev !acc

let rec type_to_string = function
  | Tvoid -> "void"
  | Tbool -> "bool"
  | Tchar -> "char"
  | Tint { unsigned; width } ->
    let base = match width with
      | `Short -> "short" | `Int -> "int" | `Long -> "long" | `Longlong -> "long long"
    in
    if unsigned then "unsigned " ^ base else base
  | Tfloat -> "float"
  | Tdouble -> "double"
  | Tnamed s -> s
  | Ttemplate (s, args) ->
    Printf.sprintf "%s<%s>" s (String.concat ", " (List.map type_to_string args))
  | Tptr t -> type_to_string t ^ "*"
  | Tref t -> type_to_string t ^ "&"
  | Tarray (t, Some n) -> Printf.sprintf "%s[%d]" (type_to_string t) n
  | Tarray (t, None) -> type_to_string t ^ "[]"
  | Tconst t -> "const " ^ type_to_string t
  | Tauto -> "auto"

let rec is_pointer_type = function
  | Tptr _ -> true
  | Tconst t -> is_pointer_type t
  | _ -> false
