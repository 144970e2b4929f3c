(** Fault-injection scenarios: the dynamic face of Observation 6.

    The paper's defensive-implementation finding ("all the functions
    should check the validity of their input parameters before using
    them ... defensive programming techniques are not used") predicts
    that invalid inputs reach memory operations unchecked.  Each scenario
    here drives a YOLO entry point with an invalid input; the interpreter's
    checked memory model turns the missing validation into an observable
    fault.  Scenarios where the code *does* validate (the exceptions) are
    expected to survive — the harness verifies both directions. *)

type expectation = Expect_fault | Expect_survive

type scenario = {
  sc_name : string;
  sc_description : string;
  sc_expect : expectation;
  sc_driver : string;  (** C source defining [int scenario()] *)
}

let scenarios =
  [
    {
      sc_name = "detections-overflow";
      sc_description =
        "get_region_detections writes past a caller buffer sized for fewer boxes";
      sc_expect = Expect_fault;
      sc_driver =
        {|int scenario() {
  layer l = make_region_layer(3, 1, 2);
  int total = 3 * 3 * 1 * 7;
  float* input = (float*)malloc(total * sizeof(float));
  for (int i = 0; i < total; ++i) {
    input[i] = 4.0;
  }
  forward_region_layer(&l, input, 0);
  detection* dets = (detection*)malloc(2 * sizeof(detection));
  int count = get_region_detections(&l, 0.1, dets);
  return count;
}|};
    };
    {
      sc_name = "maxpool-channel-mismatch";
      sc_description =
        "forward_maxpool_layer reads beyond an input sized for fewer channels";
      sc_expect = Expect_fault;
      sc_driver =
        {|int scenario() {
  layer l = make_maxpool_layer(8, 6, 6, 2, 2);
  float* small_input = (float*)malloc(2 * 6 * 6 * sizeof(float));
  for (int i = 0; i < 2 * 6 * 6; ++i) {
    small_input[i] = 1.0;
  }
  forward_maxpool_layer(&l, small_input);
  return 0;
}|};
    };
    {
      sc_name = "softmax-empty";
      sc_description = "softmax_cpu on an empty vector reads element zero";
      sc_expect = Expect_fault;
      sc_driver =
        {|int scenario() {
  float* buf = (float*)malloc(0 * sizeof(float));
  float* out = (float*)malloc(0 * sizeof(float));
  softmax_cpu(buf, 1, 1.0, out);
  return 0;
}|};
    };
    {
      sc_name = "gemm-lda-mismatch";
      sc_description = "gemm_nn with an oversized leading dimension walks off matrix A";
      sc_expect = Expect_fault;
      sc_driver =
        {|int scenario() {
  float* a = (float*)malloc(4 * sizeof(float));
  float* b = (float*)malloc(4 * sizeof(float));
  float* c = (float*)malloc(4 * sizeof(float));
  gemm_nn(2, 2, 2, 1.0, a, 8, b, 2, c, 2);
  return 0;
}|};
    };
    {
      sc_name = "im2col-padding-guard";
      sc_description =
        "im2col's boundary guard is the one defensive check present: out-of-image reads return 0";
      sc_expect = Expect_survive;
      sc_driver =
        {|int scenario() {
  float* im = (float*)malloc(1 * 4 * 4 * sizeof(float));
  for (int i = 0; i < 16; ++i) {
    im[i] = (float)i;
  }
  float* col = (float*)malloc(1 * 3 * 3 * 4 * 4 * sizeof(float));
  im2col_cpu(im, 1, 4, 4, 3, 1, 1, col);
  return 1;
}|};
    };
    {
      sc_name = "conv-param-validation";
      sc_description =
        "make_convolutional_layer validates non-positive sizes and returns an empty layer";
      sc_expect = Expect_survive;
      sc_driver =
        {|int scenario() {
  layer l = make_convolutional_layer(0, 6, 6, 4, 3, 1, 1, LEAKY);
  return l.out_c;
}|};
    };
    {
      sc_name = "nms-null-objectness";
      sc_description = "do_nms skips suppressed detections: no fault on zeroed boxes";
      sc_expect = Expect_survive;
      sc_driver =
        {|int scenario() {
  detection* dets = (detection*)malloc(3 * sizeof(detection));
  for (int i = 0; i < 3; ++i) {
    dets[i].objectness = 0.0;
    dets[i].bbox.x = 0.0;
    dets[i].bbox.y = 0.0;
    dets[i].bbox.w = 1.0;
    dets[i].bbox.h = 1.0;
  }
  do_nms(dets, 3, 0.5);
  free(dets);
  return 1;
}|};
    };
  ]

type outcome = {
  scenario : scenario;
  faulted : bool;
  detail : string;
  as_expected : bool;
}

(** Engine form of the scenario list, over the caller's parse of the
    YOLO sources: each driver is parsed privately under its own path
    ([fault/<name>.c]), so its ids never alias the measured units', and
    per-file hit sets collected by different fault scenarios merge on
    the measured units' statement/decision ids. *)
let to_scenarios ~yolo_tus =
  List.map
    (fun sc ->
      {
        Coverage.Scenario.sc_name = sc.sc_name;
        sc_tus =
          yolo_tus
          @ [ Cfront.Parser.parse_file ~extra_types:Yolo_src.extra_types
                ~file:("fault/" ^ sc.sc_name ^ ".c") sc.sc_driver ];
        sc_entries = [ "scenario" ];
      })
    scenarios

let outcome_of sc (o : Coverage.Scenario.outcome) =
  let faulted, detail =
    match o.Coverage.Scenario.o_results with
    | [ (_, Ok v) ] -> (false, "returned " ^ Coverage.Value.to_string v)
    | [ (_, Error e) ] -> (true, e)
    | _ -> (true, "scenario did not run")
  in
  let as_expected =
    match sc.sc_expect with
    | Expect_fault -> faulted
    | Expect_survive -> not faulted
  in
  { scenario = sc; faulted; detail; as_expected }

(** Run every scenario against the YOLO sources.  Each scenario gets a
    fresh interpreter (a fault poisons the store); the scenarios are
    independent, so they fan out over the worker pool. *)
let run_all () =
  let yolo_tus = Yolo_src.parse_all () in
  List.map2 outcome_of scenarios
    (Coverage.Scenario.run_all (to_scenarios ~yolo_tus))

let summary outcomes =
  let expected_faults =
    List.filter (fun o -> o.scenario.sc_expect = Expect_fault) outcomes
  in
  let realized =
    List.length (List.filter (fun o -> o.faulted) expected_faults)
  in
  (realized, List.length expected_faults,
   List.length (List.filter (fun o -> o.as_expected) outcomes),
   List.length outcomes)
