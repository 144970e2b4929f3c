(** Extended rules built on the whole-program summary engine
    ({!Interproc.Summary}).  Like the DF-* family these carry ids
    outside the MISRA C:2012 numbering:

    - IP-1: no uninitialized value may flow through a call — [&x] passed
      to a callee that provably never initializes the pointee does not
      count as initialization of [x], closing the hole rule 9.1's
      intraprocedural analysis leaves open (address-taking
      conservatively initializes there).  Findings are disjoint from
      9.1's by construction. *)

let ip1 =
  Rule.make ~id:"IP-1" ~title:"no uninitialized values across calls"
    ~category:Rule.Required (fun ctx ->
      List.map
        (fun (f : Interproc.Summary.uninit_flow) ->
          let witness =
            [
              Provenance.step ~loc:f.Interproc.Summary.ip_decl_loc "decl"
                "%s declared without an initializer in %s"
                f.Interproc.Summary.ip_var f.Interproc.Summary.ip_function;
              Provenance.step ~loc:f.Interproc.Summary.ip_call_loc "call"
                "&%s passed to %s, whose summary never initializes the pointee"
                f.Interproc.Summary.ip_var f.Interproc.Summary.ip_callee;
              Provenance.step ~loc:f.Interproc.Summary.ip_use_loc "use"
                "%s read here while still uninitialized"
                f.Interproc.Summary.ip_var;
            ]
          in
          Rule.v ~witness ~rule_id:"IP-1" ~loc:f.Interproc.Summary.ip_use_loc
            "%s may be read uninitialized in %s: &%s was passed to %s (line %d), which never initializes it"
            f.Interproc.Summary.ip_var f.Interproc.Summary.ip_function
            f.Interproc.Summary.ip_var f.Interproc.Summary.ip_callee
            f.Interproc.Summary.ip_call_loc.Cfront.Loc.line)
        ctx.Rule.interproc.Interproc.Summary.uninit_flows)

let all = [ ip1 ]
