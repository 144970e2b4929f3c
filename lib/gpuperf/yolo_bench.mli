(** Figure 7: Apollo's object detection (YOLOv2) timed under each library
    implementation — closed-source baselines (cuDNN, cuBLAS), open-source
    alternatives (ISAAC, CUTLASS) and the CPU BLAS libraries. *)

type row = {
  impl : string;
  closed_source : bool;
  device_name : string;
  total_ms : float;
  fps : float;
  vs_baseline : float;  (** runtime relative to cuDNN; >1 means slower *)
}

(** Time YOLOv2 under all six implementations.  Defaults: TITAN V vs
    the Xeon CPU baseline. *)
val run : ?gpu:Device.t -> ?cpu:Device.t -> unit -> row list

(** Per-layer (name, milliseconds) breakdown under one library. *)
val per_layer : Library_model.t -> Dnn.Layer.t list -> (string * float) list
