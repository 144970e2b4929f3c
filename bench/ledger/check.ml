(* The request checker behind [failed]: a request fails when it raises,
   when one of the paper's observations does not hold, or when its report
   differs from the oracle report of the same tree.  Reports are compared
   by digest so that a run keeps 16 bytes per request, not the report. *)

type outcome = Passed | Failed of string

let request ?oracle ~report observations =
  if not (Iso26262.Observations.all_hold observations) then
    Failed "an observation does not hold"
  else
    match oracle with
    | Some d when not (Digest.equal d report) -> Failed "report differs from the oracle"
    | _ -> Passed
