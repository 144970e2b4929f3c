(** One-pass compiler from the shared Cfront AST to {!Bytecode}.

    [compile tus] lowers every function with a body, in load order, and
    every non-extern global's initializer, in load order, to a
    {!Bytecode.program}.  The result is immutable: compile once per
    shared parse and reuse it across scenarios, entry points and worker
    domains.  With the artifact cache on, the program is memoized as a
    [bytecode] artifact keyed by the hash of the marshaled units. *)

val compile : Cfront.Ast.tu list -> Bytecode.program

(** [compile] without the artifact cache: always lowers [tus] afresh.
    For callers that are themselves memoized whole, where a nested
    [bytecode] artifact (and the marshaled-key hash it costs) would be
    redundant.

    @raise Invalid_argument naming both paths when two units share an id
    tag ({!Cfront.Parser.id_tag}): the same path twice, or a hash
    collision.  Their ids would alias in the probes and the collector. *)
val compile_uncached : Cfront.Ast.tu list -> Bytecode.program
