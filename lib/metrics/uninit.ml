(** Read-before-write detection for local variables.

    Historically a one-pass syntactic walk with a documented
    false-positive class: a variable assigned on *both* arms of an
    [if]/[else] before its first read was still reported, because
    branch assignments were never treated as definite.  The analysis now
    delegates to the flow-sensitive definite-assignment pass in
    {!Dataflow.Analyses} (CFG + worklist fixpoint), which joins branch
    facts by intersection and therefore gets that case right, while
    keeping this module's historical API: arrays and class-typed locals
    stay exempt, taking a variable's address still counts as an
    assignment (out-parameter and cudaMalloc idioms), and each variable
    is reported at most once, at its earliest offending read. *)

type finding = {
  var : string;
  decl_loc : Cfront.Loc.t;
  use_loc : Cfront.Loc.t;
  in_function : string;
}

let of_uninit_reads =
  List.map (fun (u : Dataflow.Analyses.uninit_finding) ->
      {
        var = u.Dataflow.Analyses.u_var;
        decl_loc = u.Dataflow.Analyses.u_decl_loc;
        use_loc = u.Dataflow.Analyses.u_use_loc;
        in_function = u.Dataflow.Analyses.u_function;
      })

(** The findings already computed by the dataflow layer, one fact
    record per defined function. *)
let of_facts facts =
  List.concat_map
    (fun (x : Dataflow.Analyses.func_facts) ->
      of_uninit_reads x.Dataflow.Analyses.x_uninit_reads)
    facts
