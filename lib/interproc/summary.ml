(** Whole-program summary engine over the SCC condensation of the call
    graph.

    Per-function facts (direct global accesses, IO/allocation calls,
    frame size) are computed independently per function; summaries are
    then propagated bottom-up over the SCC DAG: the strongly-connected
    components are grouped into levels (level 0 = components with no
    callee component) and processed level by level.  Within a level
    every component only reads summaries of strictly lower levels, so
    components of one level are fanned out over the domain pool
    ({!Telemetry.parallel_map}); at [--jobs 1] that is exactly the
    sequential topological walk, which is the oracle every other worker
    count must reproduce bit for bit.

    A recursive component (multi-node SCC or direct self-call) gets
    [Unbounded] call depth and stack bound with the cycle as witness,
    and its parameter-initialization facts degrade to the conservative
    "may initialize" so no downstream check gains false positives from
    recursion. *)

open Cfront
module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Depth arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let depth_max a b =
  match (a, b) with
  | Unbounded w, _ -> Unbounded w
  | _, Unbounded w -> Unbounded w
  | Finite x, Finite y -> Finite (Stdlib.max x y)

let depth_add a n =
  match a with Finite x -> Finite (x + n) | Unbounded w -> Unbounded w

let render_depth = function
  | Finite n -> string_of_int n
  | Unbounded cycle -> Printf.sprintf "unbounded (%s)" (String.concat " -> " cycle)

(* ------------------------------------------------------------------ *)
(* Direct per-function facts                                           *)
(* ------------------------------------------------------------------ *)

let io_names =
  SS.of_list
    [ "printf"; "fprintf"; "sprintf"; "snprintf"; "vprintf"; "puts";
      "putchar"; "fopen"; "fclose"; "fread"; "fwrite"; "fgets"; "fputs";
      "scanf"; "fscanf"; "sscanf"; "getc"; "getchar"; "gets"; "perror" ]

let alloc_names =
  SS.of_list [ "malloc"; "calloc"; "realloc"; "free"; "aligned_alloc" ]

(* Words a local declaration occupies on the frame: arrays get their
   element count, everything else one abstract word. *)
let rec decl_words = function
  | Ast.Tarray (t, Some n) -> n * decl_words t
  | Ast.Tarray (t, None) -> decl_words t
  | Ast.Tconst t -> decl_words t
  | _ -> 1

type direct = {
  dr_reads : SS.t;
  dr_writes : SS.t;
  dr_io : bool;
  dr_alloc : bool;
  dr_frame : int;  (** frame words: 2 overhead + params + locals *)
  dr_mentions : SS.t;  (** every identifier occurring in the body *)
}

(* Local declaration and parameter names, to separate global accesses
   from local ones of the same simple name. *)
let local_names (fn : Ast.func) =
  let acc = ref SS.empty in
  List.iter (fun p -> acc := SS.add p.Ast.p_name !acc) fn.Ast.f_params;
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         match s.Ast.s with
         | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter (fun d -> acc := SS.add d.Ast.v_name !acc) ds
         | _ -> ())
       body);
  !acc

let direct_facts ~globals (fn : Ast.func) (cfg : Dataflow.Cfg.t) =
  let locals = local_names fn in
  let is_global n = SS.mem n globals && not (SS.mem n locals) in
  let reads = ref SS.empty and writes = ref SS.empty in
  let io = ref false and alloc = ref false in
  Array.iter
    (fun (blk : Dataflow.Cfg.block) ->
      List.iter
        (fun (instr : Dataflow.Cfg.instr) ->
          List.iter
            (fun (n, _) -> if is_global n then reads := SS.add n !reads)
            (Dataflow.Cfg.uses_of_instr instr);
          List.iter
            (fun (n, _) -> if is_global n then writes := SS.add n !writes)
            (Dataflow.Cfg.defs_of_instr instr);
          (* address-taken global: its value may be written through the
             pointer — count as a write *)
          List.iter
            (fun n -> if is_global n then writes := SS.add n !writes)
            (Dataflow.Cfg.addr_taken_of_instr instr))
        blk.Dataflow.Cfg.instrs)
    cfg.Dataflow.Cfg.blocks;
  let mentions = ref SS.empty in
  let frame_locals = ref 0 in
  Ast.iter_exprs_of_func
    (fun e ->
      match e.Ast.e with
      | Ast.Id n -> mentions := SS.add n !mentions
      | Ast.New _ | Ast.Delete _ -> alloc := true
      | Ast.Call ({ e = Ast.Id n; _ }, _) ->
        if SS.mem n io_names then io := true;
        if SS.mem n alloc_names then alloc := true
      | _ -> ())
    fn;
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         match s.Ast.s with
         | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter
             (fun d -> frame_locals := !frame_locals + decl_words d.Ast.v_type)
             ds
         | _ -> ())
       body);
  {
    dr_reads = !reads;
    dr_writes = !writes;
    dr_io = !io;
    dr_alloc = !alloc;
    dr_frame = 2 + List.length fn.Ast.f_params + !frame_locals;
    dr_mentions = !mentions;
  }

(* ------------------------------------------------------------------ *)
(* Program model: globals, module ownership                            *)
(* ------------------------------------------------------------------ *)

(** Mutable (non-const, non-extern) globals of the program, by simple
    name — the name functions reference them by. *)
let mutable_globals_of_files (files : Project.parsed_file list) =
  List.fold_left
    (fun acc (pf : Project.parsed_file) ->
      List.fold_left
        (fun acc (g : Ast.global_var) ->
          if Ast.is_mutable_global g then SS.add g.Ast.g_decl.Ast.v_name acc
          else acc)
        acc
        (Ast.globals_of_tu (Project.tu pf)))
    SS.empty files

let owner_table (files : Project.parsed_file list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (pf : Project.parsed_file) ->
      let m = pf.Project.file.Project.modname in
      List.iter
        (fun (f : Ast.func) ->
          if f.Ast.f_body <> None then
            Hashtbl.replace tbl (Ast.qualified_name f) m)
        (Ast.functions_of_tu (Project.tu pf)))
    files;
  tbl

(* ------------------------------------------------------------------ *)
(* SCC condensation and level schedule                                 *)
(* ------------------------------------------------------------------ *)

(* Returns (sccs array in topological order, node -> scc index,
   levels: scc indices grouped by level, bottom level first). *)
let condense (graph : Callgraph.t) =
  let sccs = Array.of_list (Callgraph.sccs graph) in
  let n = Array.length sccs in
  let scc_of = Hashtbl.create 64 in
  Array.iteri (fun i comp -> List.iter (fun v -> Hashtbl.replace scc_of v i) comp) sccs;
  (* level.(i) = 0 for leaf components, else 1 + max callee level.
     [Callgraph.sccs] lists callers before callees, so walking the array
     backwards visits callees first. *)
  let level = Array.make n 0 in
  for i = n - 1 downto 0 do
    let deepest = ref (-1) in
    List.iter
      (fun v ->
        List.iter
          (fun callee ->
            match Hashtbl.find_opt scc_of callee with
            | Some j when j <> i -> deepest := Stdlib.max !deepest level.(j)
            | _ -> ())
          (Callgraph.callees graph v))
      sccs.(i);
    level.(i) <- 1 + !deepest
  done;
  let n_levels = Array.fold_left (fun m l -> Stdlib.max m (l + 1)) 0 level in
  let levels = Array.make n_levels [] in
  (* group by level, preserving topological order within a level *)
  for i = n - 1 downto 0 do
    levels.(level.(i)) <- i :: levels.(level.(i))
  done;
  (sccs, scc_of, level, levels)

(* ------------------------------------------------------------------ *)
(* Bottom-up summary propagation                                       *)
(* ------------------------------------------------------------------ *)

let unresolved_sites_by_caller (graph : Callgraph.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Callgraph.call_site) ->
      match s.Callgraph.cs_outcome with
      | Callgraph.Ambiguous _ | Callgraph.Unresolved | Callgraph.Indirect_call ->
        Hashtbl.replace tbl s.Callgraph.cs_caller
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s.Callgraph.cs_caller))
      | Callgraph.Resolved _ | Callgraph.Guessed _ -> ())
    graph.Callgraph.sites;
  tbl

(* Summaries for the members of one SCC, given the summaries of every
   strictly lower level in [tbl] (read-only here). *)
let summarize_scc ~graph ~owner ~params ~directs ~unresolved ~tbl ~scc_index
    ~level members =
  let recursive =
    match members with
    | [ v ] -> List.mem v (Callgraph.callees graph v)
    | _ -> true
  in
  let member_set = SS.of_list members in
  (* distinct callees outside this SCC, over all members *)
  let external_callees =
    SS.elements
      (List.fold_left
         (fun acc v ->
           List.fold_left
             (fun acc c -> if SS.mem c member_set then acc else SS.add c acc)
             acc (Callgraph.callees graph v))
         SS.empty members)
  in
  let callee_summaries =
    List.filter_map (fun c -> Hashtbl.find_opt tbl c) external_callees
  in
  (* SCC-wide transitive effects: union of members' direct facts and
     external callees' transitive facts (the trivial fixpoint — every
     member of a cycle reaches everything the cycle reaches) *)
  let fold_members f init = List.fold_left (fun acc v -> f acc (Hashtbl.find directs v)) init members in
  let reads =
    List.fold_left
      (fun acc (s : func_summary) -> SS.union acc s.s_globals_read)
      (fold_members (fun acc d -> SS.union acc d.dr_reads) SS.empty)
      callee_summaries
  in
  let writes =
    List.fold_left
      (fun acc (s : func_summary) -> SS.union acc s.s_globals_written)
      (fold_members (fun acc d -> SS.union acc d.dr_writes) SS.empty)
      callee_summaries
  in
  let does_io =
    fold_members (fun acc d -> acc || d.dr_io) false
    || List.exists (fun s -> s.s_does_io) callee_summaries
  in
  let allocates =
    fold_members (fun acc d -> acc || d.dr_alloc) false
    || List.exists (fun s -> s.s_allocates) callee_summaries
  in
  let own_unknown v = Option.value ~default:0 (Hashtbl.find_opt unresolved v) in
  let calls_unknown =
    List.exists (fun v -> own_unknown v > 0) members
    || List.exists (fun s -> s.s_calls_unknown) callee_summaries
  in
  let callee_depth =
    List.fold_left
      (fun acc s -> depth_max acc s.s_call_depth)
      (Finite 0) callee_summaries
  in
  let callee_stack =
    List.fold_left
      (fun acc s -> depth_max acc s.s_stack_words)
      (Finite 0) callee_summaries
  in
  List.map
    (fun v ->
      let d = Hashtbl.find directs v in
      let call_depth =
        if recursive then Unbounded members else depth_add callee_depth 1
      in
      let stack_words =
        if recursive then Unbounded members else depth_add callee_stack d.dr_frame
      in
      (* A parameter "may initialize" its pointee unless the body
         provably ignores it: a recursive function, or any mention of
         the name at all, keeps the conservative answer. *)
      let param_inits =
        List.map
          (fun (p : Ast.param) ->
            (p.Ast.p_name, recursive || SS.mem p.Ast.p_name d.dr_mentions))
          (Option.value ~default:[] (Hashtbl.find_opt params v))
      in
      {
        s_name = v;
        s_module = Option.value ~default:"?" (Hashtbl.find_opt owner v);
        s_scc = scc_index;
        s_level = level;
        s_recursive = recursive;
        s_globals_read = reads;
        s_globals_written = writes;
        s_does_io = does_io;
        s_allocates = allocates;
        s_calls_unknown = calls_unknown;
        s_pure =
          SS.is_empty writes && (not does_io) && (not allocates)
          && not calls_unknown;
        s_call_depth = call_depth;
        s_stack_words = stack_words;
        s_unresolved_sites = own_unknown v;
        s_param_inits = param_inits;
      })
    members

(* ------------------------------------------------------------------ *)
(* Interprocedural definite assignment (cross-call uninit)             *)
(* ------------------------------------------------------------------ *)

(* Does parameter [j] of resolved callee [q] provably NOT initialize its
   pointee?  Anything unknown answers [false] (may initialize), so the
   analysis can only get MORE conservative than the intraprocedural one,
   never noisier. *)
let param_noinit tbl q j =
  match Hashtbl.find_opt tbl q with
  | None -> false
  | Some s -> (
    match List.nth_opt s.s_param_inits j with
    | Some (_, may_init) -> not may_init
    | None -> false)

(* A direct call [f(a0, ..., an)] as [Some (f, args)], each argument
   paired with [Some x] when it is [&x].  That is the only syntax in
   which an address-taking can be non-initializing: [noinit_addr_args]
   classifies these arguments and [passes_address] skips functions
   without one, so both read it from here. *)
let addr_of_id_args (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Call ({ e = Ast.Id f; _ }, args) ->
    Some
      ( f,
        List.map
          (fun (a : Ast.expr) ->
            match a.Ast.e with
            | Ast.Unary (Ast.Addr_of, { e = Ast.Id x; _ }) -> (a, Some x)
            | _ -> (a, None))
          args )
  | _ -> None

(* The variables [x] such that every [&x] in [instr] occurs as an
   argument to a resolved direct call whose matching parameter provably
   ignores its pointee — those address-takings do NOT initialize.
   Returns (non-initializing set, attribution list (x, callee, loc)). *)
let noinit_addr_args ~summaries ~resolve_call (instr : Dataflow.Cfg.instr) =
  let noinit = ref [] and other = ref SS.empty in
  let rec walk (e : Ast.expr) =
    match addr_of_id_args e with
    | Some (fname, args) -> (
      match resolve_call fname with
      | Some q ->
        List.iteri
          (fun j (arg, addr_of) ->
            match addr_of with
            | Some x ->
              if param_noinit summaries q j then
                noinit := (x, q, e.Ast.eloc) :: !noinit
              else other := SS.add x !other
            | None -> walk arg)
          args
      | None ->
        List.iter
          (fun (arg, _) -> other := SS.union !other (SS.of_list (Dataflow.Cfg.addr_taken_of_expr arg)))
          args)
    | None ->
      (* any other address-taking initializes, as in the base analysis *)
      Ast.iter_exprs_of_expr
        (fun sub ->
          match sub.Ast.e with
          | Ast.Call ({ e = Ast.Id _; _ }, _) when sub != e -> ()
          | Ast.Unary (Ast.Addr_of, { e = Ast.Id x; _ }) ->
            if
              not
                (List.exists
                   (fun (y, _, _) -> y = x)
                   !noinit)
            then other := SS.add x !other
          | _ -> ())
        e
  in
  List.iter walk (Dataflow.Cfg.exprs_of_instr instr);
  let pure =
    List.filter (fun (x, _, _) -> not (SS.mem x !other)) !noinit
  in
  (SS.of_list (List.map (fun (x, _, _) -> x) pure), pure)

(* Only a direct call with a [&x] argument can make an address-taking
   non-initializing, so a function without one has no cross-call flow. *)
let passes_address (fn : Ast.func) =
  let found = ref false in
  Ast.iter_exprs_of_func
    (fun e ->
      match addr_of_id_args e with
      | Some (_, args) when List.exists (fun (_, x) -> x <> None) args ->
        found := true
      | _ -> ())
    fn;
  !found

(* Cross-call uninit flows in one function, over the CFG phase 1 built.
   [resolve_call] maps a raw direct-callee name in this caller to its
   resolved qualified name; [uninit] is the function's intraprocedural
   uninit reads when the dataflow layer already computed them.  The
   solve is the intraprocedural may-uninit one, except that
   address-takings classified as non-initializing call arguments keep
   the variable possibly uninitialized; each instruction is classified
   once. *)
let uninit_flows_of_func ~summaries ~resolve_call ~uninit (fn : Ast.func)
    (cfg : Dataflow.Cfg.t) =
  let module A = Dataflow.Analyses in
  let lw = A.lower cfg in
  if lw.A.n_tracked = 0 then []
  else begin
    let noinit =
      Array.map
        (Array.map (fun (li : A.linstr) ->
             noinit_addr_args ~summaries ~resolve_call li.A.instr))
        lw.A.code
    in
    let steps =
      Array.map2
        (Array.map2 (fun (li : A.linstr) (skip, _) ->
             A.uninit_step lw li
               (li.A.defs
               @ List.filter (fun i -> not (SS.mem lw.A.names.(i) skip)) li.A.addr)))
        lw.A.code noinit
    in
    let result = A.solve lw Dataflow.Framework.Forward steps in
    let fname = Ast.qualified_name fn in
    (* first non-initializing call per variable, for attribution *)
    let attr = Hashtbl.create 8 in
    Array.iter
      (Array.iter (fun (_, attrs) ->
           List.iter
             (fun (x, q, loc) ->
               if not (Hashtbl.mem attr x) then Hashtbl.add attr x (q, loc))
             attrs))
      noinit;
    if Hashtbl.length attr = 0 then []
    else begin
      (* variables the intraprocedural analysis already reports *)
      let base =
        SS.of_list
          (List.map
             (fun (f : A.uninit_finding) -> f.A.u_var)
             uninit)
      in
      let candidates = ref [] in
      Array.iteri
        (fun bid code ->
          let fact = ref result.A.Solver.before.(bid) in
          Array.iteri
            (fun idx (li : A.linstr) ->
              List.iter
                (fun (i, use_loc) ->
                  let n = lw.A.names.(i) in
                  if
                    A.is_tracked lw i && Dataflow.Bitset.mem !fact i
                    && Hashtbl.mem attr n && not (SS.mem n base)
                  then begin
                    let callee, call_loc = Hashtbl.find attr n in
                    candidates :=
                      { ip_var = n; ip_function = fname;
                        ip_callee = callee; ip_call_loc = call_loc;
                        ip_use_loc = use_loc; ip_decl_loc = lw.A.decl_locs.(i) }
                      :: !candidates
                  end)
                li.A.uses;
              fact := A.apply steps.(bid).(idx) !fact)
            code)
        lw.A.code;
      (* earliest use per variable *)
      let by_pos a b =
        compare
          (a.ip_use_loc.Loc.line, a.ip_use_loc.Loc.col, a.ip_var)
          (b.ip_use_loc.Loc.line, b.ip_use_loc.Loc.col, b.ip_var)
      in
      let sorted = List.sort by_pos (List.rev !candidates) in
      let seen = Hashtbl.create 4 in
      List.filter
        (fun f ->
          if Hashtbl.mem seen f.ip_var then false
          else begin
            Hashtbl.add seen f.ip_var ();
            true
          end)
        sorted
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let of_files ~facts (files : Project.parsed_file list) =
  Telemetry.with_span ~cat:"interproc" "interproc" (fun () ->
      let functions =
        List.concat_map
          (fun (pf : Project.parsed_file) -> Ast.functions_of_tu (Project.tu pf))
          files
      in
      let defined = List.filter (fun f -> f.Ast.f_body <> None) functions in
      (* per defined function: its intraprocedural uninit reads, as the
         dataflow layer found them *)
      let uninit_of =
        List.map
          (fun (_, (x : Dataflow.Analyses.func_facts)) -> x.Dataflow.Analyses.x_uninit_reads)
          (Dataflow.Analyses.pair_facts defined facts)
      in
      let graph = Callgraph.build functions in
      let globals = mutable_globals_of_files files in
      let owner = owner_table files in
      let params = Hashtbl.create 64 in
      List.iter
        (fun (f : Ast.func) ->
          Hashtbl.replace params (Ast.qualified_name f) f.Ast.f_params)
        defined;
      (* phase 1: direct facts, independent per function.  The CFG is
         kept for phase 3 where that phase can find a flow, and only
         there, so the program's CFGs are not all live at once. *)
      let lowered =
        Telemetry.parallel_map
          (fun f ->
            let cfg = Dataflow.Cfg.of_func f in
            let direct = direct_facts ~globals f cfg in
            (f, (if passes_address f then Some cfg else None), direct))
          defined
      in
      let directs = Hashtbl.create 64 in
      List.iter
        (fun ((f : Ast.func), _, d) ->
          Hashtbl.replace directs (Ast.qualified_name f) d)
        lowered;
      (* phase 2: bottom-up over SCC levels; within a level, components
         are independent (they read only lower-level summaries) *)
      let sccs, _scc_of, _level_of, levels = condense graph in
      let unresolved = unresolved_sites_by_caller graph in
      let tbl = Hashtbl.create 64 in
      Array.iteri
        (fun lvl scc_indices ->
          let results =
            Telemetry.parallel_map ~chunk_size:1
              (fun i ->
                summarize_scc ~graph ~owner ~params ~directs ~unresolved ~tbl
                  ~scc_index:i ~level:lvl sccs.(i))
              scc_indices
          in
          (* merge on the main domain before the next level starts *)
          List.iter
            (List.iter (fun s -> Hashtbl.replace tbl s.s_name s))
            results)
        levels;
      (* phase 3: cross-call uninit, independent per caller.  The
         direct sites are indexed by caller once, in site order, so a
         later site for the same name still wins. *)
      let sites_of_caller = Hashtbl.create 256 in
      List.iter
        (fun (s : Callgraph.call_site) ->
          if s.Callgraph.cs_kind = Callgraph.Direct then
            Hashtbl.replace sites_of_caller s.Callgraph.cs_caller
              (s :: Option.value ~default:[]
                      (Hashtbl.find_opt sites_of_caller s.Callgraph.cs_caller)))
        graph.Callgraph.sites;
      let resolve_for (f : Ast.func) =
        let cache = Hashtbl.create 8 in
        List.iter
          (fun (s : Callgraph.call_site) ->
            match s.Callgraph.cs_outcome with
            | Callgraph.Resolved q | Callgraph.Guessed (q, _) ->
              Hashtbl.replace cache s.Callgraph.cs_name q
            | _ -> ())
          (List.rev
             (Option.value ~default:[]
                (Hashtbl.find_opt sites_of_caller (Ast.qualified_name f))));
        fun name -> Hashtbl.find_opt cache name
      in
      let uninit_flows =
        List.concat
          (Telemetry.parallel_map
             (fun ((f, cfg, _), uninit) ->
               match cfg with
               | None -> []
               | Some cfg ->
                 uninit_flows_of_func ~summaries:tbl
                   ~resolve_call:(resolve_for f) ~uninit f cfg)
             (List.combine lowered uninit_of))
        |> List.sort (fun a b ->
               compare
                 ( a.ip_use_loc.Loc.file, a.ip_use_loc.Loc.line,
                   a.ip_use_loc.Loc.col, a.ip_var )
                 ( b.ip_use_loc.Loc.file, b.ip_use_loc.Loc.line,
                   b.ip_use_loc.Loc.col, b.ip_var ))
      in
      (* module coupling from DIRECT accesses: which module's code
         touches which mutable globals *)
      let module_names =
        List.sort_uniq compare
          (List.filter_map
             (fun (f : Ast.func) ->
               Hashtbl.find_opt owner (Ast.qualified_name f))
             defined)
      in
      let touched_by =
        (* global -> set of modules touching it *)
        let t = Hashtbl.create 64 in
        List.iter
          (fun (f : Ast.func) ->
            let q = Ast.qualified_name f in
            match (Hashtbl.find_opt owner q, Hashtbl.find_opt directs q) with
            | Some m, Some d ->
              SS.iter
                (fun g ->
                  let cur = Option.value ~default:SS.empty (Hashtbl.find_opt t g) in
                  Hashtbl.replace t g (SS.add m cur))
                (SS.union d.dr_reads d.dr_writes)
            | _ -> ())
          defined;
        t
      in
      let declared_in =
        (* module -> count of mutable globals its files declare *)
        let t = Hashtbl.create 16 in
        List.iter
          (fun (pf : Project.parsed_file) ->
            let m = pf.Project.file.Project.modname in
            List.iter
              (fun (g : Ast.global_var) ->
                if not (g.Ast.g_const || g.Ast.g_extern) then
                  Hashtbl.replace t m
                    (1 + Option.value ~default:0 (Hashtbl.find_opt t m)))
              (Ast.globals_of_tu (Project.tu pf)))
          files;
        t
      in
      let coupling =
        List.map
          (fun m ->
            let fns =
              List.filter
                (fun (f : Ast.func) ->
                  Hashtbl.find_opt owner (Ast.qualified_name f) = Some m)
                defined
            in
            let reads, writes =
              List.fold_left
                (fun (r, w) (f : Ast.func) ->
                  match Hashtbl.find_opt directs (Ast.qualified_name f) with
                  | Some d -> (SS.union r d.dr_reads, SS.union w d.dr_writes)
                  | None -> (r, w))
                (SS.empty, SS.empty) fns
            in
            let touched = SS.union reads writes in
            let shared =
              SS.filter
                (fun g ->
                  match Hashtbl.find_opt touched_by g with
                  | Some ms -> SS.cardinal ms > 1
                  | None -> false)
                touched
            in
            {
              mc_module = m;
              mc_functions = List.length fns;
              mc_globals_declared =
                Option.value ~default:0 (Hashtbl.find_opt declared_in m);
              mc_globals_read = SS.cardinal reads;
              mc_globals_written = SS.cardinal writes;
              mc_shared = SS.cardinal shared;
            })
          module_names
      in
      let summaries =
        List.sort (fun a b -> compare a.s_name b.s_name)
          (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])
      in
      let max_call_depth =
        List.fold_left (fun acc s -> depth_max acc s.s_call_depth) (Finite 0)
          summaries
      in
      let max_stack_words =
        List.fold_left (fun acc s -> depth_max acc s.s_stack_words) (Finite 0)
          summaries
      in
      Telemetry.add "interproc.functions" (List.length summaries);
      Telemetry.add "interproc.sccs" (Array.length sccs);
      Telemetry.add "interproc.levels" (Array.length levels);
      Telemetry.add "interproc.uninit_flows" (List.length uninit_flows);
      let cycles = Callgraph.recursion_cycles graph in
      (* Journal the whole-program conclusions with their witnesses: the
         cycle itself for recursion, the decl -> call -> use chain for
         cross-call uninit, the witness cycle for unbounded depth.  The
         rule context runs the engine once and hands the result to the
         IP-1 rule and the metrics walk; a caller that runs it again
         journals the same findings, which the journal dedups by
         content id. *)
      let cycle_steps cycle =
        match cycle with
        | [ q ] -> [ Provenance.step "call" "%s calls itself directly" q ]
        | _ :: _ :: _ ->
          List.mapi
            (fun i callee ->
              Provenance.step "call" "%s calls %s" (List.nth cycle i) callee)
            (List.tl cycle @ [ List.hd cycle ])
        | [] -> []
      in
      List.iter
        (fun cycle ->
          if cycle <> [] then
            Provenance.record
              (Provenance.make ~kind:"interproc" ~analysis:"recursion-cycle"
                 ~message:
                   (Printf.sprintf "recursion cycle: %s"
                      (String.concat " -> " (cycle @ [ List.hd cycle ])))
                 ~witness:(cycle_steps cycle) ()))
        cycles;
      List.iter
        (fun (f : uninit_flow) ->
          Provenance.record
            (Provenance.make ~kind:"interproc" ~analysis:"cross-call-uninit"
               ~loc:f.ip_use_loc
               ~message:
                 (Printf.sprintf
                    "%s may be read uninitialized in %s across the call to %s"
                    f.ip_var f.ip_function f.ip_callee)
               ~witness:
                 [
                   Provenance.step ~loc:f.ip_decl_loc "decl"
                     "%s declared without an initializer in %s" f.ip_var
                     f.ip_function;
                   Provenance.step ~loc:f.ip_call_loc "call"
                     "&%s passed to %s, whose summary never initializes the pointee"
                     f.ip_var f.ip_callee;
                   Provenance.step ~loc:f.ip_use_loc "use"
                     "%s read here while still uninitialized" f.ip_var;
                 ]
               ()))
        uninit_flows;
      (match max_call_depth with
       | Finite _ -> ()
       | Unbounded cycle ->
         Provenance.record
           (Provenance.make ~kind:"interproc" ~analysis:"unbounded-depth"
              ~message:
                (Printf.sprintf
                   "worst-case call depth is unbounded (witness cycle: %s)"
                   (String.concat " -> " cycle))
              ~witness:(cycle_steps cycle) ()));
      {
        graph;
        summaries;
        cycles;
        n_sccs = Array.length sccs;
        n_levels = Array.length levels;
        max_call_depth;
        max_stack_words;
        coupling;
        uninit_flows;
        globals_total = SS.cardinal globals;
      })

(* Without [facts] (the ledger's traced interproc layer), the producer's
   first step supplies them. *)
let analyze ?facts (parsed : Project.parsed) =
  let facts =
    match facts with
    | Some facts -> facts
    | None -> List.concat_map snd (Dataflow.Analyses.facts_of_parsed parsed)
  in
  of_files ~facts parsed.Project.files

let find_summary t name =
  List.find_opt (fun s -> s.s_name = name) t.summaries
