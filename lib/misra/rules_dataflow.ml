(** Extended rules over the dataflow layer's per-function facts (CFG +
    worklist fixpoint, solved once per function), in the spirit of the
    flow-sensitive commercial analyzers the paper ran over Apollo.  Like
    the CUDA-* family these carry ids outside the MISRA C:2012
    numbering:

    - DF-1: dead store — a value assigned (or a declaration initializer)
      that no path ever reads.  Strictly wider than the dead-store arm of
      rule 2.2, which skips declaration initializers.
    - DF-2: constant controlling expression — a branch condition that
      folds to a compile-time constant through trivial constant
      propagation over reaching definitions.  Syntactic literal
      conditions are rule 14.3's findings and are excluded here, so DF-2
      reports exactly what flow-insensitive checking cannot see. *)

let df1 =
  Rule.make ~id:"DF-1" ~title:"no dead stores (liveness)"
    ~category:Rule.Advisory (fun ctx ->
      List.concat_map
        (fun (x : Dataflow.Analyses.func_facts) ->
          let fname = x.Dataflow.Analyses.x_function in
          List.map
            (fun (d : Dataflow.Analyses.dead_store) ->
              let what =
                match d.Dataflow.Analyses.d_kind with
                | Dataflow.Analyses.Sassign -> "value assigned"
                | Dataflow.Analyses.Sdecl_init -> "initializer"
              in
              let witness =
                [
                  Provenance.step ~loc:d.Dataflow.Analyses.d_loc "store"
                    "%s to %s" what d.Dataflow.Analyses.d_var;
                  Provenance.step "liveness"
                    "%s is dead after this store on every path of %s (%d CFG nodes)"
                    d.Dataflow.Analyses.d_var fname x.Dataflow.Analyses.x_blocks;
                ]
              in
              Rule.v ~witness ~rule_id:"DF-1" ~loc:d.Dataflow.Analyses.d_loc
                "%s to %s is never read in %s" what d.Dataflow.Analyses.d_var
                fname)
            x.Dataflow.Analyses.x_dead_stores)
        ctx.Rule.facts)

let df2 =
  Rule.make ~id:"DF-2" ~title:"no constant controlling expressions (propagated)"
    ~category:Rule.Advisory (fun ctx ->
      List.concat_map
        (fun (x : Dataflow.Analyses.func_facts) ->
          let fname = x.Dataflow.Analyses.x_function in
          List.map
            (fun (c : Dataflow.Analyses.const_cond) ->
              let value = if c.Dataflow.Analyses.c_value then "true" else "false" in
              let witness =
                [
                  Provenance.step ~loc:c.Dataflow.Analyses.c_loc "condition"
                    "controlling expression folds to %s" value;
                  Provenance.step "constant-propagation"
                    "every reaching definition yields the same constant in %s (%d CFG nodes)"
                    fname x.Dataflow.Analyses.x_blocks;
                ]
              in
              Rule.v ~witness ~rule_id:"DF-2" ~loc:c.Dataflow.Analyses.c_loc
                "condition is always %s in %s" value fname)
            x.Dataflow.Analyses.x_const_conditions)
        ctx.Rule.facts)

let all = [ df1; df2 ]
