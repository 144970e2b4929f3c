(** Call graph construction and recursion detection.

    Call targets are resolved best-effort by name: an unqualified callee
    name matches a function with that simple name, preferring one in the
    same scope.  This matches what a linkerless source-level tool (the kind
    the paper used) can see.

    Every call site is additionally classified and accounted for
    ({!call_site}/{!resolution}), so downstream whole-program analyses
    know exactly how much of the graph is trustworthy: method calls whose
    bare field name matches several unrelated functions are counted as
    ambiguous instead of fabricating an edge, calls through function
    pointers are counted as indirect, and the legacy last-candidate
    fallback for plain identifier calls is kept (reports depend on it)
    but flagged as a guess. *)

module SM = Map.Make (String)

type call_kind =
  | Direct  (** plain identifier call: [F(x)] *)
  | Method  (** member call: [obj.F(x)] / [p->F(x)], resolved by field name *)
  | Kernel  (** CUDA kernel launch: [F<<<g,b>>>(x)] *)
  | Indirect  (** callee is an arbitrary expression (function pointer) *)

type outcome =
  | Resolved of string  (** unique or scope-preferred definition *)
  | Guessed of string * string list
      (** legacy fallback for [Direct]/[Kernel] sites: several candidates,
          none in the caller's scope; the edge goes to the first-defined
          candidate and the full candidate list is recorded *)
  | Ambiguous of string list
      (** several candidates, none preferable — no edge is built *)
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
      (** qualified names of defined functions whose address is taken
          (or that are referenced outside a call position), sorted *)
}

type t = {
  nodes : string list;  (** qualified function names with a definition *)
  edges : (string * string) list;  (** caller -> callee, both qualified *)
  calls_of : string list SM.t;
  callers_of : string list SM.t;
  sites : call_site list;  (** every call site in traversal order *)
  resolution : resolution;
}

(* Local declaration and parameter names of a function, used to tell a
   function-pointer variable call [fp()] apart from an unresolved named
   call, and to avoid reporting shadowed identifiers as address-taken
   functions. *)
let local_names (fn : Ast.func) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace tbl p.Ast.p_name ()) fn.Ast.f_params;
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         match s.Ast.s with
         | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter (fun d -> Hashtbl.replace tbl d.Ast.v_name ()) ds
         | _ -> ())
       body);
  tbl

(* A raw (unresolved) site produced by the body walk. *)
type raw_site =
  | Rnamed of call_kind * string * Loc.t  (** named callee *)
  | Rindirect of call_kind * Loc.t  (** callee is an expression *)
  | Rfnptr of string * Loc.t  (** function referenced outside call position *)

(* Walk a function body, classifying call sites and function references.
   The callee sub-expression of a named call is not revisited as a value
   use, so [F] in [F(x)] never counts as a function reference while [&F]
   in [g(&F)] does. *)
let raw_sites_of_func (fn : Ast.func) =
  let locals = local_names fn in
  let acc = ref [] in
  let push r = acc := r :: !acc in
  let rec walk (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Call ({ e = Ast.Id name; _ }, args) ->
      push (Rnamed (Direct, name, e.Ast.eloc));
      List.iter walk args
    | Ast.Call ({ e = Ast.Member { obj; field; _ }; _ }, args) ->
      push (Rnamed (Method, field, e.Ast.eloc));
      walk obj;
      List.iter walk args
    | Ast.Call (callee, args) ->
      push (Rindirect (Indirect, e.Ast.eloc));
      walk callee;
      List.iter walk args
    | Ast.Kernel_launch { kernel = { e = Ast.Id name; _ }; grid; block; args } ->
      push (Rnamed (Kernel, name, e.Ast.eloc));
      walk grid;
      walk block;
      List.iter walk args
    | Ast.Kernel_launch { kernel; grid; block; args } ->
      push (Rindirect (Kernel, e.Ast.eloc));
      walk kernel;
      walk grid;
      walk block;
      List.iter walk args
    | Ast.Unary (Ast.Addr_of, { e = Ast.Id name; eloc; _ }) ->
      if not (Hashtbl.mem locals name) then push (Rfnptr (name, eloc))
    | Ast.Id name ->
      if not (Hashtbl.mem locals name) then push (Rfnptr (name, e.Ast.eloc))
    | Ast.Int_const _ | Ast.Float_const _ | Ast.Bool_const _ | Ast.Str_const _
    | Ast.Char_const _ | Ast.Nullptr | Ast.Sizeof_type _ -> ()
    | Ast.Unary (_, a) | Ast.Postfix (_, a) | Ast.C_cast (_, a)
    | Ast.Cpp_cast (_, _, a) | Ast.Sizeof_expr a
    | Ast.Delete { target = a; _ } -> walk a
    | Ast.Throw a -> Option.iter walk a
    | Ast.Binary (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b) ->
      walk a;
      walk b
    | Ast.Ternary (a, b, c) ->
      walk a;
      walk b;
      walk c
    | Ast.Member { obj; _ } -> walk obj
    | Ast.New { array_size; init_args; _ } ->
      Option.iter walk array_size;
      List.iter walk init_args
  in
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         let on_decls ds =
           List.iter (fun d -> Option.iter walk d.Ast.v_init) ds
         in
         match s.Ast.s with
         | Ast.Sexpr e -> walk e
         | Ast.Sdecl ds -> on_decls ds
         | Ast.Sif { cond; _ } -> walk cond
         | Ast.Swhile (c, _) | Ast.Sdo_while (_, c) -> walk c
         | Ast.Sfor { init; cond; update; _ } ->
           (match init with
            | Ast.Fi_decl ds -> on_decls ds
            | Ast.Fi_expr e -> walk e
            | Ast.Fi_empty -> ());
           Option.iter walk cond;
           Option.iter walk update
         | Ast.Sswitch (e, _) | Ast.Scase e -> walk e
         | Ast.Sreturn (Some e) -> walk e
         | Ast.Sreturn None | Ast.Sempty | Ast.Sblock _ | Ast.Sdefault
         | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _ | Ast.Slabel _
         | Ast.Stry _ -> ())
       body);
  List.rev !acc

let simple_of name =
  match List.rev (String.split_on_char ':' name) with
  | last :: _ when last <> "" -> last
  | _ -> name

let build (funcs : Ast.func list) =
  let defined = List.filter (fun f -> f.Ast.f_body <> None) funcs in
  let by_simple =
    List.fold_left
      (fun m f ->
        let q = Ast.qualified_name f in
        SM.update f.Ast.f_name (function None -> Some [ q ] | Some l -> Some (q :: l)) m)
      SM.empty defined
  in
  let by_qualified =
    List.fold_left (fun m f -> SM.add (Ast.qualified_name f) f m) SM.empty defined
  in
  let file_of q =
    match SM.find_opt q by_qualified with
    | Some f -> f.Ast.f_loc.Loc.file
    | None -> ""
  in
  (* Resolve a named call site.  [Direct]/[Kernel] sites keep the
     historical behaviour (scope preference, then the first-defined
     candidate) so every existing report is unchanged, but the fallback
     is recorded as a guess.  [Method] sites resolved by bare field name
     must not guess: with several candidates we prefer the caller's
     scope, then a unique same-file candidate, and otherwise record the
     ambiguity with no edge. *)
  let resolve ~(caller : Ast.func) kind name =
    if SM.mem name by_qualified then Resolved name
    else
      let simple = simple_of name in
      match SM.find_opt simple by_simple with
      | None -> Unresolved
      | Some [ q ] -> Resolved q
      | Some candidates -> (
        let scoped = String.concat "::" (caller.Ast.f_scope @ [ simple ]) in
        if List.mem scoped candidates then Resolved scoped
        else
          match kind with
          | Direct | Kernel | Indirect ->
            Guessed (List.nth candidates (List.length candidates - 1), candidates)
          | Method -> (
            let caller_file = caller.Ast.f_loc.Loc.file in
            match List.filter (fun q -> file_of q = caller_file) candidates with
            | [ q ] -> Resolved q
            | _ -> Ambiguous candidates))
  in
  let raw_by_func = List.map (fun f -> (f, raw_sites_of_func f)) defined in
  let sites =
    List.concat_map
      (fun (f, raws) ->
        let caller = Ast.qualified_name f in
        List.filter_map
          (fun raw ->
            match raw with
            | Rnamed (kind, name, loc) ->
              Some
                { cs_caller = caller; cs_name = name; cs_kind = kind;
                  cs_loc = loc; cs_outcome = resolve ~caller:f kind name }
            | Rindirect (kind, loc) ->
              Some
                { cs_caller = caller; cs_name = "<expr>"; cs_kind = kind;
                  cs_loc = loc; cs_outcome = Indirect_call }
            | Rfnptr _ -> None)
          raws)
      raw_by_func
  in
  let fnptr_taken =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, raws) ->
           List.filter_map
             (fun raw ->
               match raw with
               | Rfnptr (name, _) -> (
                 (* only names that denote a defined function *)
                 if SM.mem name by_qualified then Some name
                 else
                   match SM.find_opt (simple_of name) by_simple with
                   | Some [ q ] -> Some q
                   | _ -> None)
               | _ -> None)
             raws)
         raw_by_func)
  in
  let edges =
    List.filter_map
      (fun s ->
        match s.cs_outcome with
        | Resolved q | Guessed (q, _) -> Some (s.cs_caller, q)
        | Ambiguous _ | Unresolved | Indirect_call -> None)
      sites
  in
  let count p = List.length (List.filter p sites) in
  let resolution =
    {
      total_sites = List.length sites;
      resolved = count (fun s -> match s.cs_outcome with Resolved _ -> true | _ -> false);
      guessed = count (fun s -> match s.cs_outcome with Guessed _ -> true | _ -> false);
      ambiguous =
        count (fun s -> match s.cs_outcome with Ambiguous _ -> true | _ -> false);
      unresolved = count (fun s -> s.cs_outcome = Unresolved);
      indirect = count (fun s -> s.cs_outcome = Indirect_call);
      kernel_launches = count (fun s -> s.cs_kind = Kernel);
      fnptr_taken;
    }
  in
  let add_edge m (a, b) =
    SM.update a (function None -> Some [ b ] | Some l -> Some (b :: l)) m
  in
  let calls_of = List.fold_left add_edge SM.empty edges in
  let callers_of = List.fold_left (fun m (a, b) -> add_edge m (b, a)) SM.empty edges in
  {
    nodes = List.map Ast.qualified_name defined;
    edges;
    calls_of;
    callers_of;
    sites;
    resolution;
  }

let callees t name = Option.value ~default:[] (SM.find_opt name t.calls_of)
let callers t name = Option.value ~default:[] (SM.find_opt name t.callers_of)

(** Fan-out (distinct callees) and fan-in (distinct callers). *)
let fan_out t name = List.length (List.sort_uniq compare (callees t name))
let fan_in t name = List.length (List.sort_uniq compare (callers t name))

(** Tarjan's strongly-connected components; components of size > 1 (or a
    self-loop) indicate recursion.  Callees are visited before the
    component containing their caller is emitted, and results are
    prepended, so the returned list is in topological order: a component
    appears before every component it calls into. *)
let sccs t =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees t v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      result := pop [] :: !result
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.nodes;
  !result

(** Functions involved in recursion: members of a multi-node SCC, or
    direct self-callers. *)
let recursive_functions t =
  let multi =
    List.concat (List.filter (fun comp -> List.length comp > 1) (sccs t))
  in
  let selfloop = List.filter (fun v -> List.mem v (callees t v)) t.nodes in
  List.sort_uniq compare (multi @ selfloop)

(** Recursion cycles as witness lists: every multi-node SCC (mutual
    recursion) plus singleton cycles for direct self-callers, in SCC
    topological order. *)
let recursion_cycles t =
  let components = sccs t in
  let multi = List.filter (fun comp -> List.length comp > 1) components in
  let in_multi v = List.exists (fun comp -> List.mem v comp) multi in
  let selfs =
    List.filter (fun v -> List.mem v (callees t v) && not (in_multi v)) t.nodes
  in
  multi @ List.map (fun v -> [ v ]) selfs
