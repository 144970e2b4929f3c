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

(** The census of one unit, given the {!Metrics.Census} counts of its
    defined functions in order.  Kernels, device functions and kernel
    parameters count prototypes too. *)
let of_unit (tu : Cfront.Ast.tu) (counts : Metrics.Census.counts list) =
  let fns = Cfront.Ast.functions_of_tu tu in
  let is_kernel f = List.mem Cfront.Ast.Q_global f.Cfront.Ast.f_quals in
  let kernels_l = List.filter is_kernel fns in
  let kparams = List.concat_map (fun f -> f.Cfront.Ast.f_params) kernels_l in
  let defined = List.filter (fun f -> f.Cfront.Ast.f_body <> None) fns in
  let sum f = Metrics.Census.sum f counts in
  {
    kernels = List.length kernels_l;
    device_functions =
      List.length (List.filter (fun f -> List.mem Cfront.Ast.Q_device f.Cfront.Ast.f_quals) fns);
    kernel_launches = sum (fun c -> c.Metrics.Census.launches);
    cuda_mallocs = sum (fun c -> c.Metrics.Census.cuda_mallocs);
    cuda_memcpys = sum (fun c -> c.Metrics.Census.cuda_memcpys);
    cuda_frees = sum (fun c -> c.Metrics.Census.cuda_frees);
    kernel_pointer_params =
      List.length
        (List.filter (fun p -> Cfront.Ast.is_pointer_type p.Cfront.Ast.p_type) kparams);
    kernel_params = List.length kparams;
    kernels_without_bound_check =
      List.length
        (List.filter
           (fun (f, c) -> is_kernel f && not c.Metrics.Census.bound_check)
           (List.combine defined counts));
    device_globals =
      List.length
        (List.filter (fun g -> g.Cfront.Ast.g_device) (Cfront.Ast.globals_of_tu tu));
  }

let of_tu (tu : Cfront.Ast.tu) =
  let defined =
    List.filter (fun f -> f.Cfront.Ast.f_body <> None) (Cfront.Ast.functions_of_tu tu)
  in
  of_unit tu (Metrics.Census.of_functions defined).Metrics.Census.counts

(** Pointer-parameter density of kernels: the Figure 4 observation that
    CUDA kernels are driven by raw pointer pairs. *)
let pointer_param_ratio c =
  if c.kernel_params = 0 then 0.0
  else float_of_int c.kernel_pointer_params /. float_of_int c.kernel_params
