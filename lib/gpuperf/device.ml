(** Hardware models for the analytic performance simulator.

    Numbers are public datasheet figures for the platforms of the paper's
    era (2018/2019): an NVIDIA Volta-class discrete GPU for the
    CUDA-library comparisons and a server-class Xeon for the CPU BLAS
    baseline. *)

type kind = Gpu | Cpu

type t = {
  name : string;
  kind : kind;
  peak_fp32_gflops : float;
  peak_tensor_gflops : float option;  (** mixed-precision tensor cores *)
  mem_bw_gbs : float;  (** GB/s *)
  sm_count : int;  (** SMs for GPUs, cores for CPUs *)
  l2_kb : int;
}

let titan_v =
  {
    name = "NVIDIA TITAN V (Volta)";
    kind = Gpu;
    peak_fp32_gflops = 14900.0;
    peak_tensor_gflops = Some 110000.0;
    mem_bw_gbs = 652.0;
    sm_count = 80;
    l2_kb = 4608;
  }

let gtx_1080ti =
  {
    name = "NVIDIA GTX 1080 Ti (Pascal)";
    kind = Gpu;
    peak_fp32_gflops = 11340.0;
    peak_tensor_gflops = None;
    mem_bw_gbs = 484.0;
    sm_count = 28;
    l2_kb = 2816;
  }

let drive_px2_gpu =
  (* the embedded automotive target Apollo deploys on *)
  {
    name = "NVIDIA DRIVE PX2 (Parker iGPU)";
    kind = Gpu;
    peak_fp32_gflops = 1290.0;
    peak_tensor_gflops = None;
    mem_bw_gbs = 50.0;
    sm_count = 2;
    l2_kb = 512;
  }

let xeon_e5 =
  {
    name = "Intel Xeon E5-2630 v4 (10c, AVX2)";
    kind = Cpu;
    peak_fp32_gflops = 704.0;
    peak_tensor_gflops = None;
    mem_bw_gbs = 68.0;
    sm_count = 10;
    l2_kb = 2560;
  }
