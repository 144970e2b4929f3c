(** Graphviz export of the call graph with recursion-cycle clusters. *)

val write : path:string -> Cfront.Callgraph.t -> unit
