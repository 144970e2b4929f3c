(** Compute workloads: GEMM and convolution kernels with exact FLOP and
    traffic accounting. *)

type gemm = { m : int; n : int; k : int }

type t =
  | Gemm of gemm
  | Conv of Dnn.Layer.conv

val gemm : int -> int -> int -> t
val of_conv : Dnn.Layer.conv -> t

(** 2·M·N·K for GEMM; the im2col equivalent for convolutions. *)
val flops : t -> float

(** Roofline lower-bound traffic in bytes (fp32, single pass). *)
val bytes : t -> float

(** Arithmetic intensity, flops/byte. *)
val intensity : t -> float

(** Equivalent (M, N, K) GEMM dimensions (conv via im2col). *)
val gemm_dims : t -> int * int * int

(** 3x3 stride-1 convolutions qualify for Winograd F(2x2,3x3). *)
val is_winograd_eligible : t -> bool
