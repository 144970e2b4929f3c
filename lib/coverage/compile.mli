(** One-pass compiler from the shared Cfront AST to {!Bytecode}.

    [compile tus] lowers every function with a body, in load order, and
    every non-extern global's initializer, in load order, to a
    {!Bytecode.program}.  The result is immutable: compile once per
    shared parse and reuse it across scenarios, entry points and worker
    domains.  A program is never stored: the audit memoizes each whole
    coverage phase instead.

    @raise Invalid_argument naming both paths when two units share an id
    tag ({!Cfront.Parser.id_tag}): the same path twice, or a hash
    collision.  Their ids would alias in the probes and the collector. *)
val compile : Cfront.Ast.tu list -> Bytecode.program
