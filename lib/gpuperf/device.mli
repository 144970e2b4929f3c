(** Hardware models for the analytic performance simulator: public
    datasheet figures for the platforms of the paper's era. *)

type kind = Gpu | Cpu

type t = {
  name : string;
  kind : kind;
  peak_fp32_gflops : float;
  peak_tensor_gflops : float option;  (** mixed-precision tensor cores *)
  mem_bw_gbs : float;
  sm_count : int;  (** SMs for GPUs, cores for CPUs *)
  l2_kb : int;
}

(** Volta workstation card (the paper's class of GPU). *)
val titan_v : t

(** Pascal consumer card. *)
val gtx_1080ti : t

(** The embedded automotive target Apollo deploys on. *)
val drive_px2_gpu : t

(** Server CPU for the ATLAS/OpenBLAS baselines. *)
val xeon_e5 : t
