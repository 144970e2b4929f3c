(** Compute workloads: GEMM and convolution kernels with exact FLOP and
    traffic accounting.  Convolutions carry their geometry so library
    models can specialize (Winograd for 3x3/s1, implicit GEMM
    otherwise). *)

type gemm = { m : int; n : int; k : int }

type t =
  | Gemm of gemm
  | Conv of Dnn.Layer.conv

let gemm m n k = Gemm { m; n; k }

let of_conv c = Conv c

let flops = function
  | Gemm g -> 2.0 *. float_of_int g.m *. float_of_int g.n *. float_of_int g.k
  | Conv c -> float_of_int (Dnn.Layer.conv_flops c)

let bytes = function
  | Gemm g ->
    4.0 *. ((float_of_int g.m *. float_of_int g.k)
            +. (float_of_int g.k *. float_of_int g.n)
            +. (float_of_int g.m *. float_of_int g.n))
  | Conv c -> float_of_int (Dnn.Layer.conv_bytes c)

(** Arithmetic intensity in flops/byte. *)
let intensity w = flops w /. bytes w

(** Equivalent GEMM dimensions of any workload (conv via im2col). *)
let gemm_dims = function
  | Gemm g -> (g.m, g.n, g.k)
  | Conv c ->
    let m, k, n = Dnn.Layer.conv_gemm_dims c in
    (m, n, k)

let is_winograd_eligible = function
  | Conv c -> c.Dnn.Layer.ksize = 3 && c.Dnn.Layer.stride = 1
  | Gemm _ -> false
