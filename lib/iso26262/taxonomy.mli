(** Structural models behind the paper's architecture diagrams: Figure 1
    (the AD pipeline) and Figure 2 (the perception library taxonomy with
    its open/closed-source annotation — the Observation 12 evidence). *)

type pipeline_module = {
  pm_name : string;
  pm_role : string;
  pm_inputs : string list;  (** upstream modules or sensors *)
  pm_gpu : bool;  (** GPU-accelerated in Apollo *)
}

(** The eight pipeline stages of Figure 1, in dataflow order. *)
val pipeline : pipeline_module list

val render_pipeline : unit -> string

type availability = Open_source | Closed_source

type lib_node = {
  l_name : string;
  l_kind : string;
  l_avail : availability;
  l_children : lib_node list;
}

(** The Figure 2 dependency tree rooted at the perception module. *)
val taxonomy : lib_node

val render_taxonomy : unit -> string

(** Closed-source nodes in the subtree — the certification dependency
    surface. *)
val closed_count : lib_node -> int
