(** Cast and type-conversion census.

    ISO 26262 asks for "enforcement of strong typing" and "no implicit
    type conversions".  We count:
    - explicit C-style casts,
    - explicit C++ casts (static/dynamic/const/reinterpret),
    - detectable implicit conversions: int expressions initializing or
      assigned to floating variables and vice versa, and mixed int/float
      arithmetic, inferred with a local scalar-type environment. *)

type kind =
  | C_style
  | Static
  | Dynamic
  | Const
  | Reinterpret
  | Implicit_narrowing  (** float -> int without a cast *)
  | Implicit_widening  (** int -> float without a cast *)

type record = { kind : kind; loc : Cfront.Loc.t; in_function : string }

(* --- lightweight scalar typing ------------------------------------- *)

type scalar = Kint | Kfloat | Kbool | Kptr | Kother

let rec scalar_of_type = function
  | Cfront.Ast.Tbool -> Kbool
  | Cfront.Ast.Tchar | Cfront.Ast.Tint _ -> Kint
  | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble -> Kfloat
  | Cfront.Ast.Tptr _ | Cfront.Ast.Tarray _ -> Kptr
  | Cfront.Ast.Tconst t | Cfront.Ast.Tref t -> scalar_of_type t
  | _ -> Kother

(** The scalar kind of each parameter and local of a function, by name
    (the last declaration of a name wins). *)
type env = (string, scalar) Hashtbl.t

let env_of_func (fn : Cfront.Ast.func) : env =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace tbl p.Cfront.Ast.p_name (scalar_of_type p.Cfront.Ast.p_type))
    fn.Cfront.Ast.f_params;
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sdecl ds | Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl ds; _ } ->
           List.iter
             (fun d -> Hashtbl.replace tbl d.Cfront.Ast.v_name (scalar_of_type d.Cfront.Ast.v_type))
             ds
         | _ -> ())
       body);
  tbl

let rec infer (env : env) (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Int_const _ | Cfront.Ast.Char_const _ -> Kint
  | Cfront.Ast.Float_const _ -> Kfloat
  | Cfront.Ast.Bool_const _ -> Kbool
  | Cfront.Ast.Nullptr | Cfront.Ast.Str_const _ -> Kptr
  | Cfront.Ast.Id name -> Option.value ~default:Kother (Hashtbl.find_opt env name)
  | Cfront.Ast.Unary ((Cfront.Ast.Neg | Cfront.Ast.Pos), a) -> infer env a
  | Cfront.Ast.Unary (Cfront.Ast.Lnot, _) -> Kbool
  | Cfront.Ast.Unary (Cfront.Ast.Bnot, _) -> Kint
  | Cfront.Ast.Unary ((Cfront.Ast.Pre_inc | Cfront.Ast.Pre_dec), a) -> infer env a
  | Cfront.Ast.Unary (Cfront.Ast.Deref, _) -> Kother
  | Cfront.Ast.Unary (Cfront.Ast.Addr_of, _) -> Kptr
  | Cfront.Ast.Postfix (_, a) -> infer env a
  | Cfront.Ast.Binary ((Cfront.Ast.Lt | Cfront.Ast.Gt | Cfront.Ast.Le | Cfront.Ast.Ge
                       | Cfront.Ast.Eq | Cfront.Ast.Ne | Cfront.Ast.Land | Cfront.Ast.Lor), _, _) ->
    Kbool
  | Cfront.Ast.Binary (_, a, b) ->
    (match (infer env a, infer env b) with
     | Kfloat, _ | _, Kfloat -> Kfloat
     | Kptr, _ | _, Kptr -> Kptr
     | Kint, Kint -> Kint
     | x, Kother -> x
     | Kother, y -> y
     | x, _ -> x)
  | Cfront.Ast.Assign (_, a, _) -> infer env a
  | Cfront.Ast.Ternary (_, a, _) -> infer env a
  | Cfront.Ast.C_cast (ty, _) | Cfront.Ast.Cpp_cast (_, ty, _) -> scalar_of_type ty
  | Cfront.Ast.Sizeof_type _ | Cfront.Ast.Sizeof_expr _ -> Kint
  | Cfront.Ast.New _ -> Kptr
  | _ -> Kother

(* --- census ---------------------------------------------------------- *)

(** The explicit cast an expression node is, if any.  {!Census} pairs
    these with the implicit conversions it infers. *)
let explicit_kind (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.C_cast _ -> Some C_style
  | Cfront.Ast.Cpp_cast (Cfront.Ast.Static_cast, _, _) -> Some Static
  | Cfront.Ast.Cpp_cast (Cfront.Ast.Dynamic_cast, _, _) -> Some Dynamic
  | Cfront.Ast.Cpp_cast (Cfront.Ast.Const_cast, _, _) -> Some Const
  | Cfront.Ast.Cpp_cast (Cfront.Ast.Reinterpret_cast, _, _) -> Some Reinterpret
  | _ -> None

(** The implicit conversion of storing [rhs] in a place of scalar kind
    [lhs]. *)
let implicit_kind env lhs rhs =
  match lhs with
  | Kint | Kfloat -> (
    match (lhs, infer env rhs) with
    | Kint, Kfloat -> Some Implicit_narrowing
    | Kfloat, Kint -> Some Implicit_widening
    | _ -> None)
  | Kbool | Kptr | Kother -> None

let explicit_count records =
  List.length
    (List.filter
       (fun r ->
         match r.kind with
         | C_style | Static | Dynamic | Const | Reinterpret -> true
         | Implicit_narrowing | Implicit_widening -> false)
       records)

let implicit_count records = List.length records - explicit_count records
