(** Static census of CUDA usage — the evidence behind the paper's
    Figure 4 and Observations 3, 4 and 12: CUDA code intrinsically builds
    on raw pointers and dynamically allocated device memory. *)

type t = {
  kernels : int;  (** [__global__] functions *)
  device_functions : int;  (** [__device__] functions *)
  kernel_launches : int;
  cuda_mallocs : int;
  cuda_memcpys : int;
  cuda_frees : int;
  kernel_pointer_params : int;  (** pointer parameters across all kernels *)
  kernel_params : int;
  kernels_without_bound_check : int;  (** no comparison guard in any [if] *)
  device_globals : int;  (** [__device__]/[__constant__] variables *)
}

val zero : t
val add : t -> t -> t
val of_tu : Cfront.Ast.tu -> t
val of_files : Cfront.Project.parsed_file list -> t

(** Fraction of kernel parameters that are raw pointers. *)
val pointer_param_ratio : t -> float
