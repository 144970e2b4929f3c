(** Rule-engine core types for the MISRA C:2012-style checker.

    A rule reads an analysis {!context} built once per project.  It is
    either a [check] (a function from the context to violations) or a
    {!visitor}: per-function state, handlers for the node kinds it
    registers for, and a [finish] step.  The registry runs every
    visitor that missed the store in one walk per function, sending
    each node only to the visitors registered for its kind. *)

type category = Mandatory | Required | Advisory

val category_name : category -> string

type violation = {
  rule_id : string;
  loc : Cfront.Loc.t;
  message : string;
  witness : Provenance.step list;
      (** rule-specific extra witness steps (the dataflow path, the call
          chain, the recursion cycle); the registry prepends the rule
          and violation-site steps when it journals the finding *)
}

(** The audit's project-wide facts, computed once before any rule runs
    and shared read-only by the rules on every pool worker and the
    metrics.  No rule solves, walks globals or builds a graph:
    2.1, 2.2, 9.1, DF-1 and DF-2 read [facts]; IP-1 reads [interproc],
    17.2 and CUDA-5 its recursion [cycles]; 8.9 reads [globals], 5.3
    [shadowing]; 10.3, 17.7 and 21.3 read the three records the core
    metric walk reads too, and 8.7 the call graph's sites. *)
type context = {
  files : Cfront.Project.parsed_file list;
  functions : Cfront.Ast.func list;  (** defined functions, all files *)
  facts : Dataflow.Analyses.func_facts list;
      (** the dataflow layer's facts, one record per function of
          [functions], in the same order *)
  interproc : Interproc.Summary.t;  (** summaries and the call graph *)
  globals : Metrics.Globals.record list;  (** mutable, in file order *)
  shadowing : Metrics.Shadowing.finding list;
  census : Metrics.Census.counts list;
      (** {!Metrics.Census.of_functions} [functions]: one record per
          function, in the same order; the core metrics sum them *)
  casts : Metrics.Casts.record list;  (** the census's casts *)
  ignored_returns : (string * string * Cfront.Loc.t) list;
      (** the census's discarded results: caller, callee, call site *)
  dyn_allocs : Metrics.Pointers.dyn_alloc list;  (** the census's allocations *)
}

(** {1 Visitors} *)

(** The node kinds a visitor registers for, named after the
    {!Cfront.Ast} constructors. *)
type stmt_kind =
  [ `Sexpr | `Sempty | `Sdecl | `Sblock | `Sif | `Swhile | `Sdo_while | `Sfor
  | `Sswitch | `Scase | `Sdefault | `Sbreak | `Scontinue | `Sreturn | `Sgoto
  | `Slabel | `Stry ]

type expr_kind =
  [ `Int_const | `Float_const | `Bool_const | `Str_const | `Char_const | `Nullptr
  | `Id | `Unary | `Postfix | `Binary | `Assign | `Ternary | `Call | `Kernel_launch
  | `Index | `Member | `C_cast | `Cpp_cast | `Sizeof_type | `Sizeof_expr | `New
  | `Delete | `Throw ]

(** The function a visitor's state is started on, shared by every
    visitor of one walk: its qualified name and its scalar-type
    environment are computed at most once per function, on first use. *)
type fn_info = private {
  fn : Cfront.Ast.func;
  facts : Dataflow.Analyses.func_facts;  (** [fn]'s dataflow facts *)
  name : string Lazy.t;
  env : Metrics.Casts.env Lazy.t;
}

(** {!Cfront.Ast.qualified_name} of the function. *)
val name : fn_info -> string

(** {!Metrics.Casts.env_of_func} of the function. *)
val env : fn_info -> Metrics.Casts.env

(** A visitor with per-function state ['st].  For each defined function
    in context order the walk calls [start], then [stmt] on every
    statement of a kind in [stmts] and [expr] on every expression of a
    kind in [exprs], in walk order, then [finish], whose violations are
    the function's.  Walk order is {!Cfront.Ast.iter_stmts}'s, with the
    expressions {!Cfront.Ast.iter_exprs_of_func} visits under a
    statement coming after that statement and before its children. *)
type 'st visitor = {
  stmts : stmt_kind list;
  exprs : expr_kind list;
  start : fn_info -> 'st;
  stmt : 'st -> Cfront.Ast.stmt -> unit;
  expr : 'st -> Cfront.Ast.expr -> unit;
  finish : 'st -> violation list;
}

type visit = Visit : 'st visitor -> visit

(** The state of the common visitor: its function and the violations
    found so far. *)
type found = { info : fn_info; mutable found : violation list }

val emit : found -> violation -> unit

(** [collecting ~stmts ~exprs ~stmt ~expr ()] is the visitor whose
    handlers {!emit} violations and whose [finish] returns them in the
    order emitted. *)
val collecting :
  ?stmts:stmt_kind list ->
  ?exprs:expr_kind list ->
  ?stmt:(found -> Cfront.Ast.stmt -> unit) ->
  ?expr:(found -> Cfront.Ast.expr -> unit) ->
  unit ->
  visit

(** A planned walk: the visitors of one run and their dispatch tables. *)
type walk

val plan : visit array -> walk

(** The context's defined functions with their facts, ready to be
    walked in chunks.
    @raise Invalid_argument when [facts] is not aligned with
    [functions]. *)
type functions

val functions_of : context -> functions

(** The number of chunks of [functions]: a fixed count of functions
    each, whatever the [--jobs] value. *)
val n_chunks : functions -> int

(** [run_chunk w fs c] walks chunk [c] of [fs] once and returns, for
    each visitor of [w], the violations of the chunk's functions in
    order and the time its handlers and [finish] took (0 when
    telemetry is off).  It adds the nodes walked to the
    [misra.walk.nodes] counter. *)
val run_chunk : walk -> functions -> int -> violation list array * float array

(** {1 Rules} *)

type t = {
  id : string;  (** e.g. "15.1" (MISRA C:2012) or "CUDA-2" (extension) *)
  title : string;
  category : category;
  decidable : bool;
  check : context -> violation list;
      (** for a visitor rule, the walk run for this rule alone *)
  visit : visit option;  (** [Some] for a visitor rule *)
}

val make :
  id:string ->
  title:string ->
  category:category ->
  ?decidable:bool ->
  (context -> violation list) ->
  t

(** A visitor rule. *)
val visitor : id:string -> title:string -> category:category -> visit -> t

(** The dataflow facts of every file, by path in [parsed.files] order,
    and the whole-program summary over them. *)
type producers = (string * Dataflow.Analyses.func_facts list) list * Interproc.Summary.t

(** [producers parsed] runs, in this order and under these span and
    GC-phase names, {!Dataflow.Analyses.facts_of_parsed} ([dataflow]:
    per-file cache artifacts and [dataflow] journal findings) and
    {!Interproc.Summary.analyze} over those facts ([interproc]; one
    whole-tree [interproc] artifact keyed on
    {!Cfront.Project.tree_key}, whose hit replays the journal findings
    and counts no [interproc.*] work).  Both replay their findings on a
    hit, so every audit runs them.  A hit forces no unit; a miss forces
    the units it reads on the calling domain. *)
val producers : Cfront.Project.parsed -> producers

(** [context_of parsed producers] completes the context: it forces every
    unit of [parsed] on the calling domain and adds the defined
    functions, the globals, the shadowing findings and the census: one
    walk of each function for its counts and the casts, ignored returns
    and dynamic allocations ([misra.context], timed as the
    [misra.context_us] histogram).
    Only a caller whose rule or metric artifact missed needs it. *)
val context_of : Cfront.Project.parsed -> producers -> context

(** [build_context parsed] is [context_of parsed (producers parsed)],
    the one producer of a rule context.  The audit, the metrics, the
    standalone MISRA run and the CLI all get their context from these
    functions, so a fact has one producer and one journal trail
    whichever entry point asked for it. *)
val build_context : Cfront.Project.parsed -> context

(** Printf-style violation constructor.  [witness] carries the
    rule-specific provenance steps (empty for purely syntactic rules —
    the registry's rule/site steps already make the journal chain
    non-empty). *)
val v :
  ?witness:Provenance.step list ->
  rule_id:string ->
  loc:Cfront.Loc.t ->
  ('a, unit, string, violation) format4 ->
  'a
