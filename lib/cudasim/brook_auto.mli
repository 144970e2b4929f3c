(** Brook Auto portability analysis — the conformance check for the
    certifiable GPU stream subset of the paper's reference [14].

    A kernel is a stream kernel when each thread writes only the output
    element at its own index; arbitrary reads are expressible as declared
    gather streams; dynamic memory, scatter writes, unbounded loops and
    recursion fall outside the subset. *)

type blocker =
  | Dynamic_allocation
  | Shared_memory
  | Scatter_write  (** write through a pointer at a non-thread index *)
  | Unbounded_loop  (** while/do-while *)
  | Recursion_risk
  | Kernel_launch_inside

type classification =
  | Pure_stream  (** portable as-is *)
  | Needs_gather  (** portable once reads become gather streams *)
  | Not_portable of blocker list

type report = {
  kernel : string;  (** qualified name *)
  classification : classification;
  thread_index_vars : string list;
  writes_at_thread_index : int;
  scatter_writes : int;
  gather_reads : int;
}

val classification_name : classification -> string
val of_files : Cfront.Project.parsed_file list -> report list

type summary = {
  total : int;
  pure_stream : int;
  needs_gather : int;
  not_portable : int;
}

val summarize : report list -> summary
