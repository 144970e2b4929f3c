(** Static census of CUDA usage — the evidence behind the paper's Figure 4
    discussion and Observations 3, 4 and 12: CUDA code intrinsically
    builds on pointers and dynamic device memory, and there is no language
    subset to check it against. *)

type t = {
  kernels : int;  (** [__global__] functions *)
  device_functions : int;  (** [__device__] functions *)
  kernel_launches : int;
  cuda_mallocs : int;
  cuda_memcpys : int;
  cuda_frees : int;
  kernel_pointer_params : int;  (** pointer parameters across all kernels *)
  kernel_params : int;
  kernels_without_bound_check : int;
  device_globals : int;  (** [__device__]/[__constant__] variables *)
}

let zero =
  { kernels = 0; device_functions = 0; kernel_launches = 0; cuda_mallocs = 0;
    cuda_memcpys = 0; cuda_frees = 0; kernel_pointer_params = 0;
    kernel_params = 0; kernels_without_bound_check = 0; device_globals = 0 }

let add a b =
  {
    kernels = a.kernels + b.kernels;
    device_functions = a.device_functions + b.device_functions;
    kernel_launches = a.kernel_launches + b.kernel_launches;
    cuda_mallocs = a.cuda_mallocs + b.cuda_mallocs;
    cuda_memcpys = a.cuda_memcpys + b.cuda_memcpys;
    cuda_frees = a.cuda_frees + b.cuda_frees;
    kernel_pointer_params = a.kernel_pointer_params + b.kernel_pointer_params;
    kernel_params = a.kernel_params + b.kernel_params;
    kernels_without_bound_check = a.kernels_without_bound_check + b.kernels_without_bound_check;
    device_globals = a.device_globals + b.device_globals;
  }

let has_bound_check (fn : Cfront.Ast.func) =
  let found = ref false in
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sif { cond; _ } ->
           Cfront.Ast.iter_exprs_of_expr
             (fun e ->
               match e.Cfront.Ast.e with
               | Cfront.Ast.Binary ((Cfront.Ast.Lt | Cfront.Ast.Le | Cfront.Ast.Ge
                                    | Cfront.Ast.Gt), _, _) ->
                 found := true
               | _ -> ())
             cond
         | _ -> ())
       body);
  !found

let of_tu (tu : Cfront.Ast.tu) =
  let fns = Cfront.Ast.functions_of_tu tu in
  let kernels_l =
    List.filter (fun f -> List.mem Cfront.Ast.Q_global f.Cfront.Ast.f_quals) fns
  in
  let device_fns =
    List.filter (fun f -> List.mem Cfront.Ast.Q_device f.Cfront.Ast.f_quals) fns
  in
  let count_calls name =
    let n = ref 0 in
    List.iter
      (fun fn ->
        Cfront.Ast.iter_exprs_of_func
          (fun e ->
            match e.Cfront.Ast.e with
            | Cfront.Ast.Call ({ e = Cfront.Ast.Id callee; _ }, _) when callee = name ->
              incr n
            | _ -> ())
          fn)
      fns;
    !n
  in
  let launches = ref 0 in
  List.iter
    (fun fn ->
      Cfront.Ast.iter_exprs_of_func
        (fun e ->
          match e.Cfront.Ast.e with
          | Cfront.Ast.Kernel_launch _ -> incr launches
          | _ -> ())
        fn)
    fns;
  let kparams = List.concat_map (fun f -> f.Cfront.Ast.f_params) kernels_l in
  {
    kernels = List.length kernels_l;
    device_functions = List.length device_fns;
    kernel_launches = !launches;
    cuda_mallocs = count_calls "cudaMalloc";
    cuda_memcpys = count_calls "cudaMemcpy";
    cuda_frees = count_calls "cudaFree";
    kernel_pointer_params =
      List.length
        (List.filter (fun p -> Cfront.Ast.is_pointer_type p.Cfront.Ast.p_type) kparams);
    kernel_params = List.length kparams;
    kernels_without_bound_check =
      List.length
        (List.filter
           (fun f -> f.Cfront.Ast.f_body <> None && not (has_bound_check f))
           kernels_l);
    device_globals =
      List.length
        (List.filter (fun g -> g.Cfront.Ast.g_device) (Cfront.Ast.globals_of_tu tu));
  }

let of_files (pfs : Cfront.Project.parsed_file list) =
  List.fold_left (fun acc pf -> add acc (of_tu (Cfront.Project.tu pf))) zero pfs

(** Pointer-parameter density of kernels: the Figure 4 observation that
    CUDA kernels are driven by raw pointer pairs. *)
let pointer_param_ratio c =
  if c.kernel_params = 0 then 0.0
  else float_of_int c.kernel_pointer_params /. float_of_int c.kernel_params
