(** Pointer-use and dynamic-memory census.

    ISO 26262-6 Table 8 items 2 ("no dynamic objects or variables") and 6
    ("limited use of pointers").  For CUDA code these are the features the
    paper singles out as intrinsic to the programming model (Observation
    4): host/device pointer pairs and [cudaMalloc]'d buffers.  The
    per-function counts come from {!Census}. *)

type usage = {
  ptr_params : int;  (** pointer-typed parameters *)
  ptr_locals : int;
  derefs : int;  (** unary [*] and [->] and indexing of pointers *)
  address_of : int;
}

type dyn_alloc = {
  site : string;  (** malloc | calloc | realloc | new | new[] | cudaMalloc | cudaMallocManaged *)
  loc : Cfront.Loc.t;
  in_function : string;
}

let zero = { ptr_params = 0; ptr_locals = 0; derefs = 0; address_of = 0 }

let add a b =
  {
    ptr_params = a.ptr_params + b.ptr_params;
    ptr_locals = a.ptr_locals + b.ptr_locals;
    derefs = a.derefs + b.derefs;
    address_of = a.address_of + b.address_of;
  }

let allocator_names =
  [ "malloc"; "calloc"; "realloc"; "cudaMalloc"; "cudaMallocManaged";
    "cudaMallocHost"; "cudaHostAlloc" ]

(** The allocation an expression node performs, if any: a call to one
    of {!allocator_names}, [new] or [new[]]. *)
let alloc_site (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Call ({ e = Cfront.Ast.Id name; _ }, _) when List.mem name allocator_names ->
    Some name
  | Cfront.Ast.New { array_size = Some _; _ } -> Some "new[]"
  | Cfront.Ast.New _ -> Some "new"
  | _ -> None

let dyn_allocs_of_func (fn : Cfront.Ast.func) =
  let acc = ref [] in
  let fname = Cfront.Ast.qualified_name fn in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match alloc_site e with
      | Some site -> acc := { site; loc = e.Cfront.Ast.eloc; in_function = fname } :: !acc
      | None -> ())
    fn;
  List.rev !acc
