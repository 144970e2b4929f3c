(** Runtime of the coverage engine for the C/C++/CUDA subset.

    {!Compile} lowers the parsed units to {!Bytecode} and {!Exec} runs
    it against this runtime: the environment (checked cell memory,
    globals, struct layouts, printed output), the coverage hooks, the
    step counter, cell sizing and value conversion, arithmetic, the
    builtin context, loading, and the result protocol.  CUDA kernels
    launched with [f<<<grid, block>>>(args)] run on the CPU,
    sequentially over the grid with [threadIdx]/[blockIdx] bound per
    iteration — the cuda4cpu approach the paper uses to measure GPU code
    coverage with CPU tooling.

    Memory is cell-addressed and checked: out-of-bounds and
    use-after-free accesses abort the run with a memory fault, which the
    fault-injection harness exploits as a dynamic defensive-programming
    probe.

    The differential tests run a tree-walking evaluator over the same
    runtime ([test/oracle]); everything both engines must agree on lives
    here, so a semantic fix lands in both at once. *)

exception Runtime_error of string * Cfront.Loc.t
exception Step_limit_exceeded

(** Control-flow signals that escape a function: a [break]/[continue]
    outside any loop, a [goto] to a label no enclosing block declares,
    and a C++ throw that no handler in the activation catches. *)
exception Break_signal
exception Continue_signal
exception Goto_signal of string
exception Cxx_throw of Value.t

(** Event hooks fired during execution; the {!Collector} aggregates them
    into coverage reports. *)
type hooks = {
  on_stmt : int -> unit;  (** executable statement id *)
  on_decision : int -> (int * bool option) list -> bool -> unit;
      (** decision eid, (condition eid, value-if-evaluated) vector, outcome *)
  on_switch : int -> int -> unit;  (** switch sid, clause index taken *)
  on_call : string -> unit;  (** qualified function name *)
  on_kernel_launch : string -> grid:int -> block:int -> unit;
  on_function_stmt : string -> unit;
      (** qualified name of the enclosing function, fired once per
          executed statement — drives the telemetry hot-function
          profile *)
}

(** [telemetry_hooks ?base ()] layers global-telemetry recording
    (statement / call / kernel-launch counters, per-function statement
    counts under ["interp.fn."]) over [base].  Returns [base] unchanged
    when telemetry is disabled at construction time. *)
val telemetry_hooks : ?base:hooks -> unit -> hooks

(** Flattened struct layout: field name -> (cell offset, field type). *)
type layout = {
  l_size : int;
  l_fields : (string * (int * Cfront.Ast.ctype)) list;
}

(** Execution state: store, globals, struct layouts, hooks, output and
    the step counter.  Function and enum tables are not here: the
    compiler resolves both statically ({!Bytecode.program}). *)
type env = {
  mem : Memory.t;
  globals : (string, Value.ptr * Cfront.Ast.ctype) Hashtbl.t;
      (** qualified name, and the simple name too, -> cell and type *)
  layouts : (string, layout) Hashtbl.t;
  hooks : hooks;
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable cuda_dims : (string * int64) list;
  mutable rand_state : int64;
  mutable cur_fn : string;
}

(** [create ()] makes a fresh environment.  [max_steps] bounds total
    evaluation steps across all runs in this environment (default 5e7). *)
val create : ?hooks:hooks -> ?max_steps:int -> unit -> env

(** Count one evaluation step against [env.max_steps].  {!Exec} ticks
    once per dispatched instruction, so [env.steps] is the dispatch
    counter the `compile` bench compares with the oracle's node count.
    @raise Step_limit_exceeded past the bound. *)
val tick : env -> unit

(** Cell sizing, value conversion and arithmetic. *)
val size_of : env -> Cfront.Ast.ctype -> int

val strip_const : Cfront.Ast.ctype -> Cfront.Ast.ctype
val pointee : env -> Cfront.Ast.ctype -> Cfront.Ast.ctype
val default_value : Cfront.Ast.ctype -> Value.t
val convert_to : Cfront.Ast.ctype -> Value.t -> Value.t

val arith_binop :
  env -> Cfront.Ast.binop -> Value.t -> Value.t -> Cfront.Loc.t -> Value.t

val cuda_builtin_names : string list

(** Global lookup: the exact name, else the first global whose
    qualified name ends in ["::" ^ name]. *)
val find_global : env -> string -> (Value.ptr * Cfront.Ast.ctype) option

val builtin_ctx : env -> Builtins.ctx

(** The qualified name a global is registered under, e.g. ["a::x"]. *)
val global_name : Cfront.Ast.global_var -> string

(** [declare env tus] registers the struct layouts of every unit and
    allocates a default-valued cell for every non-extern global, unit by
    unit in list order.  A global is registered under its qualified name
    and its simple name; the simple name maps to the last one declared.
    Initializers are not run here: the engine runs them afterwards, in
    the same order, through {!store_global}. *)
val declare : env -> Cfront.Ast.tu list -> unit

(** [store_global env qname v] converts [v] to the global's declared
    type and stores it in the cell registered under the qualified name
    [qname] (so [a::x] and [b::x] each get their own initializer). *)
val store_global : env -> string -> Value.t -> unit

(** [to_result f] runs [f] under the engine's result protocol: runtime
    errors, memory faults, builtin errors, step-limit exhaustion,
    uncaught C++ exceptions, and a [goto] to no label or a [break] or
    [continue] outside a loop come back as [Error] strings. *)
val to_result : (unit -> Value.t) -> (Value.t, string) result

(** Everything the program printed via printf/puts so far. *)
val output : env -> string
