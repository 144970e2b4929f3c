(** Best-effort call graph over parsed functions, with per-site
    resolution accounting so whole-program analyses know how much of the
    graph is trustworthy.

    Call targets are resolved by name: an unqualified callee matches a
    function with that simple name, preferring one in the caller's
    scope — what a linkerless source-level tool can see. *)

module SM : Map.S with type key = string

type call_kind =
  | Direct  (** plain identifier call: [F(x)] *)
  | Method  (** member call: [obj.F(x)] / [p->F(x)], resolved by field name *)
  | Kernel  (** CUDA kernel launch: [F<<<g,b>>>(x)] *)
  | Indirect  (** callee is an arbitrary expression (function pointer) *)

type outcome =
  | Resolved of string  (** unique or scope-preferred definition *)
  | Guessed of string * string list
      (** legacy fallback for [Direct]/[Kernel] sites: edge to the
          first-defined candidate, full candidate list recorded *)
  | Ambiguous of string list  (** several candidates, no edge built *)
  | Unresolved  (** named callee with no defined candidate *)
  | Indirect_call  (** callee is not a name at all *)

type call_site = {
  cs_caller : string;  (** qualified name of the calling function *)
  cs_name : string;  (** callee as written; ["<expr>"] for indirect calls *)
  cs_kind : call_kind;
  cs_loc : Loc.t;
  cs_outcome : outcome;
}

type resolution = {
  total_sites : int;
  resolved : int;
  guessed : int;
  ambiguous : int;
  unresolved : int;
  indirect : int;
  kernel_launches : int;
  fnptr_taken : string list;
      (** qualified names of defined functions referenced outside a call
          position (address taken or passed as a value), sorted *)
}

type t = {
  nodes : string list;  (** qualified names of defined functions *)
  edges : (string * string) list;  (** caller -> callee, both qualified *)
  calls_of : string list SM.t;
  callers_of : string list SM.t;
  sites : call_site list;  (** every call site in traversal order *)
  resolution : resolution;
}

(** Raw callee names (unresolved) mentioned in a function body, including
    kernel launches and method-style calls. *)
val calls_in_body : Ast.func -> string list

val build : Ast.func list -> t

(** Resolved callees of a qualified name (with multiplicity). *)
val callees : t -> string -> string list

(** Distinct-callee / distinct-caller counts. *)
val fan_out : t -> string -> int

val fan_in : t -> string -> int

(** Tarjan's strongly-connected components, in topological order: a
    component appears before every component it calls into. *)
val sccs : t -> string list list

(** Members of multi-node SCCs plus direct self-callers, sorted. *)
val recursive_functions : t -> string list

(** Recursion cycles as witness lists: multi-node SCCs (mutual
    recursion) then singleton self-call cycles, in SCC order. *)
val recursion_cycles : t -> string list list
