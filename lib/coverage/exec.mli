(** Bytecode dispatch loop: runs a {!Bytecode.program} against a
    {!Runtime.env}.  Hook events, memory effects, output and error
    messages are byte-identical to the tree-walking oracle of the
    differential tests, in strictly fewer {!Runtime.tick} steps;
    [test/test_bytecode_diff.ml] holds the engine to that contract.

    Loading declares the program's struct layouts and global cells
    ({!Runtime.declare}) and then runs its compiled global initializers
    once, in load order.  An error in an initializer is reported with
    the entry result protocol, as the result of every entry. *)

(** Load the program into a fresh environment and call [entry].
    Runtime errors, memory faults, builtin errors, step-limit exhaustion
    and uncaught C++ exceptions come back as [Error] strings
    ({!Runtime.to_result}). *)
val run :
  Runtime.env ->
  Bytecode.program ->
  entry:string ->
  args:Value.t list ->
  (Value.t, string) result

(** Load the program into a fresh environment once, then call each
    entry in order with no arguments.  A failing entry does not stop the
    rest: the fault-injection and gap-probe scenarios count the coverage
    reached before a fault. *)
val run_entries :
  Runtime.env ->
  Bytecode.program ->
  entries:string list ->
  (string * (Value.t, string) result) list
