(** Figure 7: Apollo's object detection (YOLOv2) timed under each library
    implementation — closed-source baselines (cuBLAS, cuDNN), open-source
    alternatives (CUTLASS, ISAAC), and the CPU BLAS libraries that
    demonstrate why a GPU is unavoidable for this workload. *)

type row = {
  impl : string;
  closed_source : bool;
  device_name : string;
  total_ms : float;
  fps : float;
  vs_baseline : float;  (** runtime relative to the cuDNN baseline, >1 = slower *)
}

let implementations ~gpu ~cpu =
  [
    Library_model.cudnn gpu;
    Library_model.cublas gpu;
    Library_model.isaac gpu;
    Library_model.cutlass gpu;
    Library_model.openblas cpu;
    Library_model.atlas cpu;
  ]

let run ?(gpu = Device.titan_v) ?(cpu = Device.xeon_e5) () =
  Telemetry.with_span ~cat:"gpuperf" "gpuperf.yolo"
    ~attrs:[ ("gpu", gpu.Device.name); ("cpu", cpu.Device.name) ]
  @@ fun () ->
  Telemetry.incr "gpuperf.yolo_benches";
  let libs = implementations ~gpu ~cpu in
  let times =
    List.map (fun lib -> (lib, Library_model.network_time_ms lib Dnn.Yolo.yolov2)) libs
  in
  let baseline =
    match times with (_, t) :: _ -> t | [] -> 1.0
  in
  List.map
    (fun ((lib : Library_model.t), t) ->
      {
        impl = lib.Library_model.lib_name;
        closed_source = lib.Library_model.closed_source;
        device_name = lib.Library_model.device.Device.name;
        total_ms = t;
        fps = 1000.0 /. t;
        vs_baseline = t /. baseline;
      })
    times

(** Per-layer breakdown under one library (used by the examples). *)
let per_layer lib net =
  List.map
    (fun layer ->
      let ms =
        match layer with
        | Dnn.Layer.Conv c -> lib.Library_model.time_ms (Workload.of_conv c)
        | other ->
          let fl = float_of_int (Dnn.Layer.flops other) in
          fl *. 8.0 /. (lib.Library_model.device.Device.mem_bw_gbs *. 1e9 *. 0.6) *. 1000.0
      in
      (Dnn.Layer.name layer, ms))
    net
