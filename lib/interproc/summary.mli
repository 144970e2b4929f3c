(** Whole-program summary engine: bottom-up per-function summaries over
    the SCC condensation of the call graph, level-parallel over the
    domain pool with the jobs=1 topological walk as the exact oracle. *)

open Cfront
module SS : Set.S with type elt = string

type depth =
  | Finite of int
  | Unbounded of string list  (** witness: one recursion cycle *)

type func_summary = {
  s_name : string;  (** qualified function name *)
  s_module : string;  (** module owning the definition *)
  s_scc : int;  (** SCC index, topological (callers first) *)
  s_level : int;  (** 0 = leaf component of the condensation *)
  s_recursive : bool;  (** member of a recursion cycle *)
  s_globals_read : SS.t;  (** transitive: own reads + callees' *)
  s_globals_written : SS.t;  (** transitive, address-taken counts as write *)
  s_does_io : bool;  (** transitively reaches an IO routine *)
  s_allocates : bool;  (** transitively reaches new/delete/malloc/free *)
  s_calls_unknown : bool;
      (** has (or reaches) an unresolved, ambiguous or indirect call *)
  s_pure : bool;
      (** no transitive writes/IO/allocation and no unknown callees *)
  s_call_depth : depth;  (** worst-case call-chain depth, leaf = 1 *)
  s_stack_words : depth;  (** worst-case stack bound, in abstract words *)
  s_unresolved_sites : int;  (** own unresolved/ambiguous/indirect sites *)
  s_param_inits : (string * bool) list;
      (** per parameter, in declaration order: may the callee initialize
          the pointee?  [false] only when the parameter is provably
          ignored by the body (and the function is not recursive) *)
}

type module_coupling = {
  mc_module : string;
  mc_functions : int;
  mc_globals_declared : int;  (** mutable globals declared in the module *)
  mc_globals_read : int;  (** distinct mutable globals read directly *)
  mc_globals_written : int;
  mc_shared : int;  (** of those, touched by at least one other module *)
}

(** An uninitialized value flowing through a call: [&x] was passed to a
    callee that provably never initializes the pointee, and [x] was read
    afterwards while still possibly uninitialized.  Disjoint from the
    intraprocedural 9.1 findings by construction. *)
type uninit_flow = {
  ip_var : string;
  ip_function : string;  (** caller containing the flow *)
  ip_callee : string;  (** callee that failed to initialize *)
  ip_call_loc : Loc.t;
  ip_use_loc : Loc.t;
  ip_decl_loc : Loc.t;
}

type t = {
  graph : Callgraph.t;
  summaries : func_summary list;  (** sorted by qualified name *)
  cycles : string list list;  (** recursion cycles, SCC order *)
  n_sccs : int;
  n_levels : int;
  max_call_depth : depth;
  max_stack_words : depth;
  coupling : module_coupling list;  (** sorted by module name *)
  uninit_flows : uninit_flow list;  (** sorted by (file, line, col, var) *)
  globals_total : int;  (** mutable globals in the program *)
}

val render_depth : depth -> string

(** Run the engine over a parsed project.  [facts], one record per
    defined function in {!Cfront.Project.all_functions} order (as
    {!Misra.Rule.producers} passes them), supplies the
    intraprocedural uninit reads the cross-call check excludes.  Only
    the ledger's traced interproc layer (bench/ledger/run.ml) omits
    them; {!Dataflow.Analyses.facts_of_parsed} then computes them.
    @raise Invalid_argument when [facts] does not match the functions. *)
val analyze : ?facts:Dataflow.Analyses.func_facts list -> Project.parsed -> t

val find_summary : t -> string -> func_summary option
