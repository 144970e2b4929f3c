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

(** The census of one unit, given the {!Metrics.Census.counts} of its
    defined functions, in order. *)
val of_unit : Cfront.Ast.tu -> Metrics.Census.counts list -> t

(** [of_unit] over a census of the unit's own functions. *)
val of_tu : Cfront.Ast.tu -> t

(** Fraction of kernel parameters that are raw pointers. *)
val pointer_param_ratio : t -> float
