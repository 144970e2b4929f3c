(** Modified Condition/Decision Coverage bookkeeping.

    For each decision we retain the set of observed test vectors: the
    truth value of each leaf condition (None when short-circuit skipped
    it) together with the decision outcome.  A condition [c] is MC/DC
    covered (unique-cause with short-circuit masking) when two vectors
    exist that (a) give [c] both truth values with [c] actually evaluated,
    (b) produce different decision outcomes, and (c) agree on every other
    condition — where a masked (unevaluated) condition agrees with
    anything, the standard relaxation for short-circuit languages. *)

type vector = { conds : (int * bool option) list; outcome : bool }

type decision_log = {
  mutable vectors : vector list;  (** deduplicated *)
}

type t = {
  logs : (int, decision_log) Hashtbl.t;  (** decision eid -> log *)
}

let create () = { logs = Hashtbl.create 64 }

let record t ~decision_eid ~conds ~outcome =
  let log =
    match Hashtbl.find_opt t.logs decision_eid with
    | Some l -> l
    | None ->
      let l = { vectors = [] } in
      Hashtbl.replace t.logs decision_eid l;
      l
  in
  let v = { conds; outcome } in
  if not (List.mem v log.vectors) then log.vectors <- v :: log.vectors

(* Set-union merge: fold [src]'s vectors into [into], keeping the
   deduplication invariant.  Union is commutative and associative on the
   vector *sets*, so any partition of a scenario run into batches merges
   to the same set — the scenario-parallel coverage engine relies on
   exactly this.  Only the internal list order depends on merge order;
   every score ({!condition_covered}, {!decision_score}) is an
   existential over the set and is order-blind. *)
let merge_into ~into src =
  Hashtbl.iter
    (fun eid (src_log : decision_log) ->
      List.iter
        (fun v -> record into ~decision_eid:eid ~conds:v.conds ~outcome:v.outcome)
        (List.rev src_log.vectors))
    src.logs

(** Canonical view for state comparison: decisions sorted by eid, each
    vector set sorted structurally — equal return values iff the two
    collectors carry the same MC/DC information, independent of record
    and merge order. *)
let canonical t =
  Hashtbl.fold (fun eid log acc -> (eid, List.sort compare log.vectors) :: acc) t.logs []
  |> List.sort compare

(* The independence pairs use short-circuit masking: a masked
   (unevaluated) condition agrees with anything. *)
let agree_except ~except v1 v2 =
  List.for_all2
    (fun (id1, b1) (id2, b2) ->
      assert (id1 = id2);
      if id1 = except then true
      else
        match (b1, b2) with
        | None, _ | _, None -> true
        | Some x, Some y -> x = y)
    v1.conds v2.conds

let value_of cond_id v = Option.join (List.assoc_opt cond_id v.conds)

(** Is condition [cond_id] of this decision MC/DC-covered by the observed
    vectors? *)
let condition_covered log cond_id =
  let vs = log.vectors in
  List.exists
    (fun v1 ->
      List.exists
        (fun v2 ->
          v1.outcome <> v2.outcome
          && (match (value_of cond_id v1, value_of cond_id v2) with
              | Some a, Some b -> a <> b
              | _ -> false)
          && agree_except ~except:cond_id v1 v2)
        vs)
    vs

(** For an MC/DC-uncovered condition, suggest the vector that would
    complete an independence pair: take an observed vector where the
    condition was evaluated and flip that condition (evaluation of the
    suggestion must also flip the decision for the pair to count — the
    tester checks that when building the input).  Returns
    [(condition value to force, the base vector to replicate)] or [None]
    when the decision was never reached at all. *)
let suggest_vector t ~decision_eid ~cond_id =
  match Hashtbl.find_opt t.logs decision_eid with
  | None -> None
  | Some log ->
    let with_cond =
      List.filter (fun v -> value_of cond_id v <> None) log.vectors
    in
    (match with_cond with
     | [] -> (
         (* condition always masked: any vector is a starting point *)
         match log.vectors with
         | v :: _ -> Some (true, v)
         | [] -> None)
     | v :: _ -> (
         match value_of cond_id v with
         | Some b -> Some (not b, v)
         | None -> None))

(** (covered, total) conditions for one decision given its static
    condition list. *)
let decision_score t ~decision_eid ~conditions =
  match Hashtbl.find_opt t.logs decision_eid with
  | None -> (0, List.length conditions)
  | Some log ->
    let covered =
      List.length (List.filter (condition_covered log) conditions)
    in
    (covered, List.length conditions)
