(** Rule-engine core types for the MISRA C:2012-style checker.

    A rule is either a function from the analysis {!context} to a list
    of {!violation}s, or a visitor that the registry runs with the other
    visitors in one walk per function.  The context is built once per
    project, so individual rules stay cheap. *)

open Cfront

type category = Mandatory | Required | Advisory

let category_name = function
  | Mandatory -> "mandatory"
  | Required -> "required"
  | Advisory -> "advisory"

type violation = {
  rule_id : string;
  loc : Loc.t;
  message : string;
  witness : Provenance.step list;
      (** rule-specific extra witness steps; the registry prepends the
          rule and violation-site steps when journaling *)
}

type context = {
  files : Project.parsed_file list;
  functions : Ast.func list;  (** defined functions, all files *)
  facts : Dataflow.Analyses.func_facts list;  (** aligned with [functions] *)
  interproc : Interproc.Summary.t;
  globals : Metrics.Globals.record list;
  shadowing : Metrics.Shadowing.finding list;
  census : Metrics.Census.counts list;  (** aligned with [functions] *)
  casts : Metrics.Casts.record list;
  ignored_returns : (string * string * Loc.t) list;
  dyn_allocs : Metrics.Pointers.dyn_alloc list;
}

(* ------------------------------------------------------------------ *)
(* Visitors                                                            *)
(* ------------------------------------------------------------------ *)

type stmt_kind =
  [ `Sexpr | `Sempty | `Sdecl | `Sblock | `Sif | `Swhile | `Sdo_while | `Sfor
  | `Sswitch | `Scase | `Sdefault | `Sbreak | `Scontinue | `Sreturn | `Sgoto
  | `Slabel | `Stry ]

type expr_kind =
  [ `Int_const | `Float_const | `Bool_const | `Str_const | `Char_const | `Nullptr
  | `Id | `Unary | `Postfix | `Binary | `Assign | `Ternary | `Call | `Kernel_launch
  | `Index | `Member | `C_cast | `Cpp_cast | `Sizeof_type | `Sizeof_expr | `New
  | `Delete | `Throw ]

(* Dispatch-table slots, one per kind: a node's slot is read off its
   constructor, a registered kind's slot off the kind. *)
let stmt_slots = 17

let stmt_slot (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Sexpr _ -> 0 | Ast.Sempty -> 1 | Ast.Sdecl _ -> 2 | Ast.Sblock _ -> 3
  | Ast.Sif _ -> 4 | Ast.Swhile _ -> 5 | Ast.Sdo_while _ -> 6 | Ast.Sfor _ -> 7
  | Ast.Sswitch _ -> 8 | Ast.Scase _ -> 9 | Ast.Sdefault -> 10 | Ast.Sbreak -> 11
  | Ast.Scontinue -> 12 | Ast.Sreturn _ -> 13 | Ast.Sgoto _ -> 14 | Ast.Slabel _ -> 15
  | Ast.Stry _ -> 16

let stmt_kind_slot : stmt_kind -> int = function
  | `Sexpr -> 0 | `Sempty -> 1 | `Sdecl -> 2 | `Sblock -> 3 | `Sif -> 4
  | `Swhile -> 5 | `Sdo_while -> 6 | `Sfor -> 7 | `Sswitch -> 8 | `Scase -> 9
  | `Sdefault -> 10 | `Sbreak -> 11 | `Scontinue -> 12 | `Sreturn -> 13
  | `Sgoto -> 14 | `Slabel -> 15 | `Stry -> 16

let expr_slots = 23

let expr_slot (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_const _ -> 0 | Ast.Float_const _ -> 1 | Ast.Bool_const _ -> 2
  | Ast.Str_const _ -> 3 | Ast.Char_const _ -> 4 | Ast.Nullptr -> 5 | Ast.Id _ -> 6
  | Ast.Unary _ -> 7 | Ast.Postfix _ -> 8 | Ast.Binary _ -> 9 | Ast.Assign _ -> 10
  | Ast.Ternary _ -> 11 | Ast.Call _ -> 12 | Ast.Kernel_launch _ -> 13 | Ast.Index _ -> 14
  | Ast.Member _ -> 15 | Ast.C_cast _ -> 16 | Ast.Cpp_cast _ -> 17 | Ast.Sizeof_type _ -> 18
  | Ast.Sizeof_expr _ -> 19 | Ast.New _ -> 20 | Ast.Delete _ -> 21 | Ast.Throw _ -> 22

let expr_kind_slot : expr_kind -> int = function
  | `Int_const -> 0 | `Float_const -> 1 | `Bool_const -> 2 | `Str_const -> 3
  | `Char_const -> 4 | `Nullptr -> 5 | `Id -> 6 | `Unary -> 7 | `Postfix -> 8
  | `Binary -> 9 | `Assign -> 10 | `Ternary -> 11 | `Call -> 12
  | `Kernel_launch -> 13 | `Index -> 14 | `Member -> 15 | `C_cast -> 16
  | `Cpp_cast -> 17 | `Sizeof_type -> 18 | `Sizeof_expr -> 19 | `New -> 20
  | `Delete -> 21 | `Throw -> 22

type fn_info = {
  fn : Ast.func;
  facts : Dataflow.Analyses.func_facts;
  name : string Lazy.t;
  env : Metrics.Casts.env Lazy.t;
}

let name i = Lazy.force i.name
let env i = Lazy.force i.env

type 'st visitor = {
  stmts : stmt_kind list;
  exprs : expr_kind list;
  start : fn_info -> 'st;
  stmt : 'st -> Ast.stmt -> unit;
  expr : 'st -> Ast.expr -> unit;
  finish : 'st -> violation list;
}

type visit = Visit : 'st visitor -> visit

type found = { info : fn_info; mutable found : violation list }

let emit a v = a.found <- v :: a.found

let collecting ?(stmts = []) ?(exprs = []) ?(stmt = fun _ _ -> ())
    ?(expr = fun _ _ -> ()) () =
  Visit
    { stmts; exprs; start = (fun info -> { info; found = [] }); stmt; expr;
      finish = (fun a -> List.rev a.found) }

(* The walk.  A chunk of [chunk_size] functions is walked once; each
   node goes to the queue of every visitor registered for its kind.
   Each visitor then replays its queue alone: per function, [start],
   its nodes in walk order, [finish].  Replaying one visitor at a time
   is what lets each rule's handlers be timed apart from the walk and
   from each other. *)

(* A queue: the statements and the expressions sent to one visitor,
   and one tag per node (which array it is next in) or function end.
   A walk keeps one set of queues per domain that runs its chunks, and
   drops them with the walk. *)
type queue = {
  mutable q_stmts : Ast.stmt array;
  mutable n_stmts : int;
  mutable q_exprs : Ast.expr array;
  mutable n_exprs : int;
  mutable tags : Bytes.t;
  mutable n_tags : int;
}

type walk = {
  visits : visit array;
  by_stmt : int array array;  (** slot -> the visitors registered for it *)
  by_expr : int array array;
  queues : (Domain.id, queue array) Hashtbl.t;  (** one set per domain *)
  lock : Mutex.t;
}

let plan visits =
  let table slots kinds_of =
    Array.init slots (fun slot ->
        let rs = ref [] in
        Array.iteri (fun i v -> if List.mem slot (kinds_of v) then rs := i :: !rs) visits;
        Array.of_list (List.rev !rs))
  in
  { visits;
    by_stmt = table stmt_slots (fun (Visit v) -> List.map stmt_kind_slot v.stmts);
    by_expr = table expr_slots (fun (Visit v) -> List.map expr_kind_slot v.exprs);
    queues = Hashtbl.create 4;
    lock = Mutex.create () }

type functions = { fns : Ast.func array; fn_facts : Dataflow.Analyses.func_facts array }

let functions_of ctx =
  let fns = Array.of_list ctx.functions and fn_facts = Array.of_list ctx.facts in
  if Array.length fns <> Array.length fn_facts then
    invalid_arg "Misra.Rule: one fact record per function";
  { fns; fn_facts }

(* Fixed, so the chunks (and so the tick-clock timings summed over
   them) are the same at every --jobs value. *)
let chunk_size = 32

let n_chunks fs = (Array.length fs.fns + chunk_size - 1) / chunk_size

let tag_stmt = '\000'
let tag_expr = '\001'
let tag_end = '\002'

let new_queue () =
  { q_stmts = [||]; n_stmts = 0; q_exprs = [||]; n_exprs = 0; tags = Bytes.create 64;
    n_tags = 0 }

(* The calling domain's queues of [w], emptied.  No handler walks, so a
   domain is in at most one chunk of a walk at a time. *)
let queues w =
  let qs =
    Mutex.protect w.lock (fun () ->
        let d = Domain.self () in
        match Hashtbl.find_opt w.queues d with
        | Some qs -> qs
        | None ->
          let qs = Array.map (fun _ -> new_queue ()) w.visits in
          Hashtbl.add w.queues d qs;
          qs)
  in
  Array.iter
    (fun q ->
      q.n_stmts <- 0;
      q.n_exprs <- 0;
      q.n_tags <- 0)
    qs;
  qs

let push_tag q t =
  if q.n_tags = Bytes.length q.tags then begin
    let b = Bytes.create (2 * q.n_tags) in
    Bytes.blit q.tags 0 b 0 q.n_tags;
    q.tags <- b
  end;
  Bytes.unsafe_set q.tags q.n_tags t;
  q.n_tags <- q.n_tags + 1

let grown a n x =
  let b = Array.make (max 32 (2 * n)) x in
  Array.blit a 0 b 0 n;
  b

let push_stmt q s =
  if q.n_stmts = Array.length q.q_stmts then q.q_stmts <- grown q.q_stmts q.n_stmts s;
  Array.unsafe_set q.q_stmts q.n_stmts s;
  q.n_stmts <- q.n_stmts + 1;
  push_tag q tag_stmt

let push_expr q e =
  if q.n_exprs = Array.length q.q_exprs then q.q_exprs <- grown q.q_exprs q.n_exprs e;
  Array.unsafe_set q.q_exprs q.n_exprs e;
  q.n_exprs <- q.n_exprs + 1;
  push_tag q tag_expr

(* One visitor over its queue: the violations of the chunk's functions,
   in function order. *)
let replay (Visit v) q (infos : fn_info array) =
  let per_fn = ref [] in
  let si = ref 0 and ei = ref 0 and f = ref 0 in
  let st = ref (v.start infos.(0)) in
  for k = 0 to q.n_tags - 1 do
    let t = Bytes.unsafe_get q.tags k in
    if t = tag_stmt then begin
      v.stmt !st q.q_stmts.(!si);
      incr si
    end
    else if t = tag_expr then begin
      v.expr !st q.q_exprs.(!ei);
      incr ei
    end
    else begin
      (match v.finish !st with [] -> () | vs -> per_fn := vs :: !per_fn);
      incr f;
      if !f < Array.length infos then st := v.start infos.(!f)
    end
  done;
  List.concat (List.rev !per_fn)

(* The walk order is [Ast.iter_stmts]'s, and under each statement the
   expressions [Ast.iter_exprs_of_stmt] visits there, in its order,
   before the statement's children: a visitor registered only for
   statements sees them as [iter_stmts] does, one registered only for
   expressions as [iter_exprs_of_func] does.  The traversal is spelled
   out rather than composed from those iterators, which allocate a
   closure per block and per call: the walk allocates nothing per node,
   so the GC work it would cause does not land in the visitors' timed
   replays (DESIGN.md, "The rule engine"). *)
let run_chunk w fs c =
  let lo = c * chunk_size in
  let hi = min (Array.length fs.fns) (lo + chunk_size) in
  let infos =
    Array.init (hi - lo) (fun i ->
        let fn = fs.fns.(lo + i) in
        { fn; facts = fs.fn_facts.(lo + i); name = lazy (Ast.qualified_name fn);
          env = lazy (Metrics.Casts.env_of_func fn) })
  in
  let queues = queues w in
  let nodes = ref 0 in
  let rec stmt (s : Ast.stmt) =
    incr nodes;
    let rs = w.by_stmt.(stmt_slot s) in
    for k = 0 to Array.length rs - 1 do push_stmt queues.(rs.(k)) s done;
    match s.Ast.s with
    | Ast.Sexpr e | Ast.Scase e | Ast.Sreturn (Some e) -> expr e
    | Ast.Sdecl ds -> decls ds
    | Ast.Sblock ss -> List.iter stmt ss
    | Ast.Sif { cond; then_; else_ } ->
      expr cond;
      stmt then_;
      Option.iter stmt else_
    | Ast.Swhile (c, body) | Ast.Sdo_while (body, c) | Ast.Sswitch (c, body) ->
      expr c;
      stmt body
    | Ast.Sfor { init; cond; update; body } ->
      (match init with
       | Ast.Fi_decl ds -> decls ds
       | Ast.Fi_expr e -> expr e
       | Ast.Fi_empty -> ());
      Option.iter expr cond;
      Option.iter expr update;
      stmt body
    | Ast.Slabel (_, body) -> stmt body
    | Ast.Stry { body; catches } ->
      stmt body;
      List.iter (fun (_, h) -> stmt h) catches
    | Ast.Sreturn None | Ast.Sempty | Ast.Sdefault | Ast.Sbreak | Ast.Scontinue
    | Ast.Sgoto _ -> ()
  and decls ds = List.iter (fun (d : Ast.var_decl) -> Option.iter expr d.Ast.v_init) ds
  and expr (e : Ast.expr) =
    incr nodes;
    let rs = w.by_expr.(expr_slot e) in
    for k = 0 to Array.length rs - 1 do push_expr queues.(rs.(k)) e done;
    match e.Ast.e with
    | Ast.Int_const _ | Ast.Float_const _ | Ast.Bool_const _ | Ast.Str_const _
    | Ast.Char_const _ | Ast.Nullptr | Ast.Id _ | Ast.Sizeof_type _ -> ()
    | Ast.Unary (_, a) | Ast.Postfix (_, a) | Ast.C_cast (_, a) | Ast.Cpp_cast (_, _, a)
    | Ast.Sizeof_expr a | Ast.Delete { target = a; _ } ->
      expr a
    | Ast.Throw a -> Option.iter expr a
    | Ast.Binary (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b) ->
      expr a;
      expr b
    | Ast.Ternary (a, b, c) ->
      expr a;
      expr b;
      expr c
    | Ast.Call (f, args) ->
      expr f;
      List.iter expr args
    | Ast.Kernel_launch { kernel; grid; block; args } ->
      expr kernel;
      expr grid;
      expr block;
      List.iter expr args
    | Ast.Member { obj; _ } -> expr obj
    | Ast.New { array_size; init_args; _ } ->
      Option.iter expr array_size;
      List.iter expr init_args
  in
  Array.iter
    (fun i ->
      Option.iter stmt i.fn.Ast.f_body;
      Array.iter (fun q -> push_tag q tag_end) queues)
    infos;
  Telemetry.add "misra.walk.nodes" !nodes;
  (* Each visitor's replay is timed on its own; consecutive regions
     share a clock reading. *)
  let timing = Telemetry.enabled () in
  let elapsed = Array.make (Array.length queues) 0.0 in
  let t = ref (if timing then Telemetry.now_us () else 0.0) in
  let found =
    Array.mapi
      (fun i q ->
        let vs = replay w.visits.(i) q infos in
        if timing then begin
          let t' = Telemetry.now_us () in
          elapsed.(i) <- t' -. !t;
          t := t'
        end;
        vs)
      queues
  in
  (found, elapsed)

let walk_all w fs =
  let chunks = List.init (n_chunks fs) (fun c -> fst (run_chunk w fs c)) in
  Array.mapi (fun i _ -> List.concat_map (fun found -> found.(i)) chunks) w.visits

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  id : string;  (** e.g. "15.1" for MISRA C:2012 rule 15.1, or "CUDA-2" *)
  title : string;
  category : category;
  decidable : bool;
  check : context -> violation list;
  visit : visit option;
}

let make ~id ~title ~category ?(decidable = true) check =
  { id; title; category; decidable; check; visit = None }

let visitor ~id ~title ~category visit =
  let check ctx =
    match ctx.functions with
    | [] -> []
    | _ -> (walk_all (plan [| visit |]) (functions_of ctx)).(0)
  in
  { id; title; category; decidable = true; check; visit = Some visit }

(* ------------------------------------------------------------------ *)
(* The context                                                         *)
(* ------------------------------------------------------------------ *)

type producers = (string * Dataflow.Analyses.func_facts list) list * Interproc.Summary.t

(* The whole-program summary of [parsed], memoized whole as the
   [interproc] artifact.  Interproc reads every file and names
   each function's module, so the key is the tree key (paths, module
   names, header flags and content hashes, in order).  The artifact has
   no owner, so reverting an edit finds it again.  It holds the summary
   and the findings the run journaled (recursion cycles, cross-call
   uninit flows, unbounded depth), which a hit replays; a hit adds no
   [interproc.*] work counters, because no work was done. *)
let interproc_of ~facts parsed =
  let key = Cache.key ~kind:"interproc" [ Project.tree_key parsed ] in
  let (summary : Interproc.Summary.t), findings =
    Cache.memo (Cache.global ()) ~kind:"interproc" ~key (fun () ->
        Provenance.collect (fun () -> Interproc.Summary.analyze ~facts parsed))
  in
  List.iter Provenance.record findings;
  summary

(* The two producers whose hits replay journal findings, in the audit's
   order: the dataflow layer solves every defined function (per-file
   cache artifacts and journal findings), and interproc runs over those
   facts and builds the call graph.  A file whose dataflow artifact hits
   is not forced, so a warm run reads no unit here. *)
let producers (parsed : Project.parsed) =
  let facts =
    Telemetry.gc_phase "dataflow" (fun () -> Dataflow.Analyses.facts_of_parsed parsed)
  in
  let interproc =
    Telemetry.gc_phase "interproc" (fun () ->
        interproc_of ~facts:(List.concat_map snd facts) parsed)
  in
  (facts, interproc)

(* The rest of the context: every unit is forced here, on the calling
   domain, for the defined functions, the globals, the shadowing
   findings and the census, whose per-function counts the core metrics
   sum and whose three records rules and metrics both read.  Every fact
   is a plain value computed before the registry fans the rules out: no
   worker forces a unit. *)
let context_of (parsed : Project.parsed) (facts, interproc) =
  Telemetry.with_span ~cat:"misra" "misra.context" @@ fun () ->
  Telemetry.timed "misra.context_us" @@ fun () ->
  let files = parsed.Project.files in
  let functions = Project.defined_functions files in
  let globals = Metrics.Globals.of_files files in
  let census = Metrics.Census.of_functions functions in
  { files; functions; facts = List.concat_map snd facts; interproc; globals;
    shadowing = Metrics.Shadowing.of_globals ~globals files;
    census = census.Metrics.Census.counts;
    casts = census.Metrics.Census.casts;
    ignored_returns = census.Metrics.Census.ignored_returns;
    dyn_allocs = census.Metrics.Census.dyn_allocs }

let build_context parsed = context_of parsed (producers parsed)

let v ?(witness = []) ~rule_id ~loc fmt =
  Printf.ksprintf (fun message -> { rule_id; loc; message; witness }) fmt
