(** Software-architecture metrics for ISO 26262-6 Table 3: component
    sizes, interface sizes, coupling between components, cohesion within
    components, hierarchy, and the (statically visible) scheduling and
    interrupt properties. *)

type component = {
  name : string;
  loc : int;
  n_files : int;
  n_functions : int;
  interface_size : int;  (** functions visible outside the component *)
  fan_out : int;  (** distinct other components this one calls into *)
  fan_in : int;
  cohesion : float;  (** intra-component call edges / all call edges from it *)
  max_interface_params : int;
  uses_interrupts : bool;
  uses_threads : bool;
}

let interrupt_markers = [ "signal"; "sigaction"; "irq_handler"; "attachInterrupt" ]
let thread_markers = [ "pthread_create"; "std::thread"; "thread"; "async" ]

(** What the core metric walk already knows of a module: its physical
    lines, and whether any of its functions calls one of the
    interrupt or thread markers above ({!Census} records both per
    function). *)
type module_facts = { m_loc : int; m_interrupts : bool; m_threads : bool }

(** Per-module components of [parsed]; coupling and cohesion come from
    the edges of [graph], the project's call graph, and each component's
    size and markers from its entry in [modules], which must hold every
    module. *)
let build ~(graph : Cfront.Callgraph.t) ~(parsed : Cfront.Project.parsed)
    ~(modules : (string * module_facts) list) =
  Telemetry.with_span ~cat:"metrics" "metrics.architecture" @@ fun () ->
  let module_names = Cfront.Project.module_names parsed.Cfront.Project.project in
  let per_module =
    List.map
      (fun m ->
        let pfs = Cfront.Project.parsed_files_of_module parsed m in
        (m, pfs, Cfront.Project.defined_functions pfs))
      module_names
  in
  let owner = Hashtbl.create 256 in
  List.iter
    (fun (m, _, fns) ->
      List.iter (fun fn -> Hashtbl.replace owner (Cfront.Ast.qualified_name fn) m) fns)
    per_module;
  let cross_edges =
    List.filter_map
      (fun (a, b) ->
        match (Hashtbl.find_opt owner a, Hashtbl.find_opt owner b) with
        | Some ma, Some mb -> Some (ma, mb)
        | _ -> None)
      graph.Cfront.Callgraph.edges
  in
  List.map
    (fun (m, pfs, fns) ->
      let outgoing = List.filter (fun (a, _) -> a = m) cross_edges in
      let intra = List.length (List.filter (fun (_, b) -> b = m) outgoing) in
      let inter_targets =
        List.sort_uniq compare
          (List.filter_map (fun (_, b) -> if b <> m then Some b else None) outgoing)
      in
      let incoming_sources =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) -> if b = m && a <> m then Some a else None)
             cross_edges)
      in
      (* interface: non-static free functions + public methods *)
      let interface_fns =
        List.filter
          (fun (fn : Cfront.Ast.func) ->
            not (List.mem Cfront.Ast.Q_static fn.Cfront.Ast.f_quals))
          fns
      in
      let facts = List.assoc m modules in
      {
        name = m;
        loc = facts.m_loc;
        n_files = List.length pfs;
        n_functions = List.length fns;
        interface_size = List.length interface_fns;
        fan_out = List.length inter_targets;
        fan_in = List.length incoming_sources;
        cohesion =
          (let total = List.length outgoing in
           if total = 0 then 1.0 else float_of_int intra /. float_of_int total);
        max_interface_params =
          List.fold_left
            (fun acc (fn : Cfront.Ast.func) ->
              Stdlib.max acc (List.length fn.Cfront.Ast.f_params))
            0 interface_fns;
        uses_interrupts = facts.m_interrupts;
        uses_threads = facts.m_threads;
      })
    per_module

(** Hierarchy depth of a module: maximum namespace nesting observed. *)
let namespace_depth (pfs : Cfront.Project.parsed_file list) =
  let rec depth_of_tops d tops =
    List.fold_left
      (fun acc top ->
        match top with
        | Cfront.Ast.Tnamespace (_, inner) -> Stdlib.max acc (depth_of_tops (d + 1) inner)
        | _ -> Stdlib.max acc d)
      d tops
  in
  List.fold_left
    (fun acc pf -> Stdlib.max acc (depth_of_tops 0 (Cfront.Project.tu pf).Cfront.Ast.tops))
    0 pfs
