(** Concrete dataflow analyses over {!Cfg}: reachability (unreachable
    code), definite assignment (uninitialized reads), liveness (dead
    stores) and reaching definitions with trivial constant folding
    (constant branch conditions).

    All four power MISRA rules 2.1/2.2/9.1 plus the DF-1/DF-2 extended
    rules and the [adcheck dataflow] report.

    A function is lowered once ({!lower}): every instruction's uses,
    defs and address-takings are extracted a single time, and the names
    they mention are numbered densely per function.  Each fixpoint then
    runs over {!Bitset}s: an instruction is a [(kill, gen)] pair, a
    block is its instructions' pairs composed once, and a transfer is
    [(x \ kill) ∪ gen]. *)

open Cfront

(* ------------------------------------------------------------------ *)
(* Lowering: one record per function                                   *)
(* ------------------------------------------------------------------ *)

let rec strip_const = function Ast.Tconst t -> strip_const t | t -> t

(* Locals whose uninitialized reads / dead stores are meaningful: scalar
   (or pointer) automatic variables.  Arrays, class-typed and reference
   locals have constructor/aliasing semantics and are exempt, matching
   the original Metrics.Uninit policy. *)
let tracked_type t =
  match strip_const t with
  | Ast.Tarray _ | Ast.Tnamed _ | Ast.Ttemplate _ | Ast.Tref _ | Ast.Tauto -> false
  | _ -> true

module Names = Hashtbl.Make (String)

(** One instruction with the variables it touches, by name number. *)
type linstr = {
  instr : Cfg.instr;
  uses : (int * Loc.t) list;  (** {!Cfg.uses_of_instr} *)
  defs : int list;  (** the names of {!Cfg.defs_of_instr} *)
  addr : int list;  (** {!Cfg.addr_taken_of_instr} *)
  undecl : int list;  (** the local a declaration without an initializer
                          introduces, if any *)
}

type lowered = {
  cfg : Cfg.t;
  fname : string;  (** qualified name *)
  code : linstr array array;  (** [code.(bid)], in execution order *)
  names : string array;
      (** every name an instruction uses, defines, takes the address of
          or declares, by number.  The tracked locals come first, in
          first-declaration order: [0 .. n_tracked - 1]. *)
  n_tracked : int;
  numbers : int Names.t;  (** the inverse of [names] *)
  decl_locs : Loc.t array;
      (** first declaration of each tracked local (name-level
          granularity, as in the original syntactic analysis) *)
  escaped : Bitset.t;
      (** address-taken anywhere in the function, so a store may be
          observed through the pointer *)
  reach : bool array;  (** {!Cfg.reachable} *)
}

let lower (cfg : Cfg.t) =
  let numbers = Names.create 32 in
  let number n =
    match Names.find_opt numbers n with
    | Some i -> i
    | None ->
      let i = Names.length numbers in
      Names.add numbers n i;
      i
  in
  let decl_locs = ref [] in
  Array.iter
    (fun (blk : Cfg.block) ->
      List.iter
        (fun (instr : Cfg.instr) ->
          match instr.Cfg.i with
          | Cfg.Idecl d
            when tracked_type d.Ast.v_type && not (Names.mem numbers d.Ast.v_name) ->
            ignore (number d.Ast.v_name);
            decl_locs := d.Ast.v_loc :: !decl_locs
          | _ -> ())
        blk.Cfg.instrs)
    cfg.Cfg.blocks;
  let n_tracked = Names.length numbers in
  let escaped = ref [] in
  let lower_instr (instr : Cfg.instr) =
    let uses = List.map (fun (n, loc) -> (number n, loc)) (Cfg.uses_of_instr instr) in
    let defs = List.map (fun (n, _) -> number n) (Cfg.defs_of_instr instr) in
    let addr = List.map number (Cfg.addr_taken_of_instr instr) in
    let undecl =
      match instr.Cfg.i with
      | Cfg.Idecl d when d.Ast.v_init = None -> [ number d.Ast.v_name ]
      | _ -> []
    in
    escaped := List.rev_append addr !escaped;
    { instr; uses; defs; addr; undecl }
  in
  let code =
    Array.map
      (fun (blk : Cfg.block) -> Array.of_list (List.map lower_instr blk.Cfg.instrs))
      cfg.Cfg.blocks
  in
  let names = Array.make (Names.length numbers) "" in
  Names.iter (fun n i -> names.(i) <- n) numbers;
  {
    cfg;
    fname = Ast.qualified_name cfg.Cfg.func;
    code;
    names;
    n_tracked;
    numbers;
    decl_locs = Array.of_list (List.rev !decl_locs);
    escaped = Bitset.of_list !escaped;
    reach = Cfg.reachable cfg;
  }

let is_tracked lw i = i < lw.n_tracked

(** [mem lw n fact]: the name [n] is in [fact]. *)
let mem lw n fact =
  match Names.find_opt lw.numbers n with Some i -> Bitset.mem fact i | None -> false

(* A tracked local that is never address-taken. *)
let private_local lw n =
  match Names.find_opt lw.numbers n with
  | Some i -> is_tracked lw i && not (Bitset.mem lw.escaped i)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Gen/kill transfers and the shared solver                            *)
(* ------------------------------------------------------------------ *)

(** A transfer [x ↦ (x \ kill) ∪ gen]. *)
type step = { kill : Bitset.t; gen : Bitset.t }

let identity = { kill = Bitset.empty; gen = Bitset.empty }

let step ~kill ~gen =
  if kill == Bitset.empty && gen == Bitset.empty then identity else { kill; gen }

let apply s x = Bitset.apply x ~kill:s.kill ~gen:s.gen

(* [s] then [t]: kill' = kill ∪ d, gen' = (gen \ d) ∪ u for [t = (d, u)]. *)
let compose s t =
  if s == identity then t
  else if t == identity then s
  else { kill = Bitset.union s.kill t.kill; gen = apply t s.gen }

module Solver = Framework.Make (Bitset)

(** [solve lw direction steps] solves from the empty boundary fact,
    [steps.(bid)] holding one transfer per instruction of block [bid]
    in execution order.  Each block is summarized once. *)
let solve lw direction (steps : step array array) =
  let summary =
    Array.map
      (fun s ->
        match direction with
        | Framework.Forward -> Array.fold_left compose identity s
        | Framework.Backward -> Array.fold_right (fun t acc -> compose acc t) s identity)
      steps
  in
  Solver.solve ~cfg:lw.cfg ~direction ~boundary:Bitset.empty
    ~transfer:(fun bid fact -> apply summary.(bid) fact)

(* ------------------------------------------------------------------ *)
(* Definite assignment / may-be-uninitialized reads                    *)
(* ------------------------------------------------------------------ *)

type uninit_finding = {
  u_var : string;
  u_decl_loc : Loc.t;
  u_use_loc : Loc.t;
  u_function : string;
}

(** The may-uninit transfer of one instruction over the tracked locals:
    the names in [clears] become assigned, and a declaration without an
    initializer makes its variable possibly uninitialized. *)
let uninit_step lw (li : linstr) clears =
  let tracked = List.filter (is_tracked lw) in
  step ~kill:(Bitset.of_list (tracked clears)) ~gen:(Bitset.of_list (tracked li.undecl))

(* The fact is the set of tracked locals that are declared but possibly
   not yet assigned (the dual of definite assignment; union join makes
   "maybe uninitialized" a may-property, so a variable assigned on every
   path into a use is NOT in the fact there).  Assignments and
   address-taking initialize. *)
let uninit_steps lw =
  Array.map (Array.map (fun li -> uninit_step lw li (li.defs @ li.addr))) lw.code

(** Flow-sensitive uninitialized-read findings, one per variable (the
    earliest use in source order). *)
let uninit_reads_of_lowered lw =
  if lw.n_tracked = 0 then []
  else begin
    let steps = uninit_steps lw in
    let result = solve lw Framework.Forward steps in
    let candidates = ref [] in
    Array.iteri
      (fun bid code ->
        let fact = ref result.Solver.before.(bid) in
        Array.iteri
          (fun idx li ->
            List.iter
              (fun (i, use_loc) ->
                if is_tracked lw i && Bitset.mem !fact i then
                  candidates :=
                    { u_var = lw.names.(i); u_decl_loc = lw.decl_locs.(i);
                      u_use_loc = use_loc; u_function = lw.fname }
                    :: !candidates)
              li.uses;
            fact := apply steps.(bid).(idx) !fact)
          code)
      lw.code;
    (* earliest use per variable, in source order *)
    let by_pos a b =
      compare
        (a.u_use_loc.Loc.line, a.u_use_loc.Loc.col, a.u_var)
        (b.u_use_loc.Loc.line, b.u_use_loc.Loc.col, b.u_var)
    in
    let sorted = List.sort by_pos (List.rev !candidates) in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun f ->
        if Hashtbl.mem seen f.u_var then false
        else begin
          Hashtbl.add seen f.u_var ();
          true
        end)
      sorted
  end

(* ------------------------------------------------------------------ *)
(* Liveness and dead stores                                            *)
(* ------------------------------------------------------------------ *)

type store_kind = Sassign | Sdecl_init

type dead_store = {
  d_var : string;
  d_loc : Loc.t;
  d_kind : store_kind;
  d_function : string;
}

(* live := (live \ defs) ∪ uses; address-taken variables escape and are
   treated as used. *)
let live_steps lw =
  Array.map
    (Array.map (fun li ->
         step ~kill:(Bitset.of_list li.defs)
           ~gen:(Bitset.of_list (List.rev_append (List.map fst li.uses) li.addr))))
    lw.code

(** Live variables at block boundaries, by name number. *)
let liveness lw = solve lw Framework.Backward (live_steps lw)

(* The store a single instruction performs on a simple local, if any:
   a top-level assignment statement or a declaration initializer. *)
let store_of_instr (instr : Cfg.instr) =
  match instr.Cfg.i with
  | Cfg.Iexpr { e = Ast.Assign (_, { e = Ast.Id n; _ }, _); _ } ->
    Some (n, instr.Cfg.iloc, Sassign)
  | Cfg.Idecl ({ Ast.v_init = Some _; _ } as d) ->
    Some (d.Ast.v_name, d.Ast.v_loc, Sdecl_init)
  | _ -> None

(** Stores whose value is never read on any path: flow-sensitive dead
    stores.  Only tracked locals are considered; variables whose address
    is taken anywhere in the function are exempt (the store may be
    observed through the pointer), as are stores in unreachable blocks
    (those are rule 2.1's findings, not dead stores). *)
let dead_stores lw =
  if lw.n_tracked = 0 then []
  else begin
    let steps = live_steps lw in
    let live = solve lw Framework.Backward steps in
    let acc = ref [] in
    Array.iteri
      (fun bid code ->
        if lw.reach.(bid) then begin
          (* walk the block backwards tracking liveness per instruction *)
          let fact = ref live.Solver.after.(bid) in
          for idx = Array.length code - 1 downto 0 do
            (match store_of_instr code.(idx).instr with
             | Some (n, loc, kind)
               when private_local lw n && not (mem lw n !fact) ->
               acc :=
                 { d_var = n; d_loc = loc; d_kind = kind; d_function = lw.fname } :: !acc
             | _ -> ());
            fact := apply steps.(bid).(idx) !fact
          done
        end)
      lw.code;
    List.sort
      (fun a b ->
        compare
          (a.d_loc.Loc.line, a.d_loc.Loc.col, a.d_var)
          (b.d_loc.Loc.line, b.d_loc.Loc.col, b.d_var))
      !acc
  end

(* ------------------------------------------------------------------ *)
(* Reaching definitions and trivial constant propagation               *)
(* ------------------------------------------------------------------ *)

(* Syntactic constant folding of side-effect-free expressions. *)
let rec fold_literal (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_const n -> Some n
  | Ast.Bool_const b -> Some (if b then 1L else 0L)
  | Ast.Char_const c -> Some (Int64.of_int (Char.code c))
  | Ast.Unary (op, a) -> (
      match (op, fold_literal a) with
      | Ast.Neg, Some n -> Some (Int64.neg n)
      | Ast.Pos, Some n -> Some n
      | Ast.Lnot, Some n -> Some (if n = 0L then 1L else 0L)
      | Ast.Bnot, Some n -> Some (Int64.lognot n)
      | _ -> None)
  | Ast.Binary (op, a, b) -> (
      match (fold_literal a, fold_literal b) with
      | Some x, Some y -> fold_binop op x y
      | _ -> None)
  | Ast.Ternary (c, a, b) -> (
      match fold_literal c with
      | Some 0L -> fold_literal b
      | Some _ -> fold_literal a
      | None -> None)
  | Ast.C_cast (t, a) | Ast.Cpp_cast (_, t, a) ->
    (match strip_const t with
     | Ast.Tint _ | Ast.Tbool | Ast.Tchar -> fold_literal a
     | _ -> None)
  | _ -> None

and fold_binop op x y =
  let bool_ b = Some (if b then 1L else 0L) in
  match op with
  | Ast.Add -> Some (Int64.add x y)
  | Ast.Sub -> Some (Int64.sub x y)
  | Ast.Mul -> Some (Int64.mul x y)
  | Ast.Div -> if y = 0L then None else Some (Int64.div x y)
  | Ast.Mod -> if y = 0L then None else Some (Int64.rem x y)
  | Ast.Shl -> if y < 0L || y > 62L then None else Some (Int64.shift_left x (Int64.to_int y))
  | Ast.Shr -> if y < 0L || y > 62L then None else Some (Int64.shift_right x (Int64.to_int y))
  | Ast.Lt -> bool_ (x < y)
  | Ast.Gt -> bool_ (x > y)
  | Ast.Le -> bool_ (x <= y)
  | Ast.Ge -> bool_ (x >= y)
  | Ast.Eq -> bool_ (x = y)
  | Ast.Ne -> bool_ (x <> y)
  | Ast.Band -> Some (Int64.logand x y)
  | Ast.Bor -> Some (Int64.logor x y)
  | Ast.Bxor -> Some (Int64.logxor x y)
  | Ast.Land -> bool_ (x <> 0L && y <> 0L)
  | Ast.Lor -> bool_ (x <> 0L || y <> 0L)
  | Ast.Comma -> None

type reaching = {
  defs_result : Solver.result;  (** sets of def-site ids *)
  def_steps : step array array;
  site_const : int64 option array;
      (** by site id: [Some c] when the definition assigns a
          compile-time literal constant *)
  sites_of_var : int list array;  (** by name number, ascending site ids *)
}

(** Reaching definitions: per-instruction def sites numbered densely in
    program order, with the standard gen/kill fixpoint (a definition
    strongly kills every other site of its variables). *)
let reaching_definitions lw =
  let consts = ref [] and next = ref 0 in
  let sites_of_var = Array.make (Array.length lw.names) [] in
  let const_of_instr (instr : Cfg.instr) var =
    match instr.Cfg.i with
    | Cfg.Idecl d when d.Ast.v_name = var ->
      Option.bind d.Ast.v_init fold_literal
    | Cfg.Iexpr { e = Ast.Assign (Ast.A_eq, { e = Ast.Id n; _ }, rhs); _ }
      when n = var ->
      fold_literal rhs
    | _ -> None
  in
  (* first pass: each instruction's variables, and their site ids *)
  let sites =
    Array.map
      (Array.map (fun li ->
           List.map
             (fun var ->
               let id = !next in
               incr next;
               consts := const_of_instr li.instr lw.names.(var) :: !consts;
               sites_of_var.(var) <- id :: sites_of_var.(var);
               (var, id))
             (List.sort_uniq Int.compare (li.defs @ li.addr @ li.undecl))))
      lw.code
  in
  let sites_of_var = Array.map List.rev sites_of_var in
  let kill_of_var = Array.map Bitset.of_list sites_of_var in
  let def_steps =
    Array.map
      (Array.map (function
         | [] -> identity
         | this ->
           {
             kill =
               List.fold_left
                 (fun acc (var, _) -> Bitset.union acc kill_of_var.(var))
                 Bitset.empty this;
             gen = Bitset.of_list (List.map snd this);
           }))
      sites
  in
  {
    defs_result = solve lw Framework.Forward def_steps;
    def_steps;
    site_const = Array.of_list (List.rev !consts);
    sites_of_var;
  }

type const_cond = {
  c_loc : Loc.t;
  c_value : bool;  (** the condition is always this *)
  c_origin : Cfg.cond_origin;
  c_function : string;
  c_propagated : bool;  (** required reaching-definition propagation, i.e.
                            the condition is not itself a literal *)
}

(** Branch conditions that fold to a compile-time constant, using the
    reaching definitions of each variable: a variable folds when every
    definition reaching the use assigns the same literal.  Only locals
    declared in the function whose address is never taken participate
    (anything else can change behind the analysis's back). *)
let constant_conditions lw =
  let rd = reaching_definitions lw in
  let acc = ref [] in
  Array.iteri
    (fun bid code ->
      if lw.reach.(bid) then begin
        let fact = ref rd.defs_result.Solver.before.(bid) in
        Array.iteri
          (fun idx li ->
            (match li.instr.Cfg.i with
             | Cfg.Icond (e, origin) ->
               let env var =
                 if private_local lw var then begin
                   List.fold_left
                     (fun acc id ->
                       if not (Bitset.mem !fact id) then acc
                       else
                         match (acc, rd.site_const.(id)) with
                         | `Start, Some c -> `Const c
                         | `Const c, Some c' when c = c' -> `Const c
                         | _ -> `Varies)
                     `Start
                     rd.sites_of_var.(Names.find lw.numbers var)
                   |> function `Const c -> Some c | _ -> None
                 end
                 else None
               in
               let rec fold (e : Ast.expr) =
                 match e.Ast.e with
                 | Ast.Id x -> env x
                 | Ast.Unary (op, a) -> (
                     match (op, fold a) with
                     | Ast.Neg, Some n -> Some (Int64.neg n)
                     | Ast.Pos, Some n -> Some n
                     | Ast.Lnot, Some n -> Some (if n = 0L then 1L else 0L)
                     | Ast.Bnot, Some n -> Some (Int64.lognot n)
                     | _ -> None)
                 | Ast.Binary (op, a, b) -> (
                     match (fold a, fold b) with
                     | Some x, Some y -> fold_binop op x y
                     | _ -> None)
                 | _ -> fold_literal e
               in
               let literal = fold_literal e <> None in
               (match fold e with
                | Some c ->
                  acc :=
                    { c_loc = e.Ast.eloc; c_value = c <> 0L; c_origin = origin;
                      c_function = lw.fname; c_propagated = not literal }
                    :: !acc
                | None -> ())
             | _ -> ());
            fact := apply rd.def_steps.(bid).(idx) !fact)
          code
      end)
    lw.code;
  List.sort
    (fun a b ->
      compare (a.c_loc.Loc.line, a.c_loc.Loc.col) (b.c_loc.Loc.line, b.c_loc.Loc.col))
    !acc

(* ------------------------------------------------------------------ *)
(* Unreachable code regions                                            *)
(* ------------------------------------------------------------------ *)

(** Contiguous regions of unreachable blocks that contain at least one
    instruction, reported by the source location of the first instruction
    in the region.  One region yields one finding, however many blocks
    the dead construct lowered to. *)
let unreachable_regions lw =
  let cfg = lw.cfg and reach = lw.reach in
  let n = Cfg.n_blocks cfg in
  let visited = Array.make n false in
  let regions = ref [] in
  let explore root =
    let first = ref None in
    let rec go id =
      if (not visited.(id)) && not reach.(id) then begin
        visited.(id) <- true;
        (match (!first, Cfg.first_loc cfg.Cfg.blocks.(id)) with
         | None, Some loc -> first := Some loc
         | _ -> ());
        List.iter (fun (dst, _) -> go dst) cfg.Cfg.blocks.(id).Cfg.succs
      end
    in
    go root;
    Option.iter (fun loc -> regions := loc :: !regions) !first
  in
  (* region roots: unreachable blocks with no unreachable predecessor *)
  Array.iter
    (fun (blk : Cfg.block) ->
      if
        (not reach.(blk.Cfg.bid))
        && (not visited.(blk.Cfg.bid))
        && not (List.exists (fun p -> not reach.(p)) blk.Cfg.preds)
      then explore blk.Cfg.bid)
    cfg.Cfg.blocks;
  (* safety net for pred-cycles of dead blocks with no root *)
  Array.iter
    (fun (blk : Cfg.block) ->
      if (not reach.(blk.Cfg.bid)) && not visited.(blk.Cfg.bid) then
        explore blk.Cfg.bid)
    cfg.Cfg.blocks;
  List.sort
    (fun (a : Loc.t) (b : Loc.t) -> compare (a.Loc.line, a.Loc.col) (b.Loc.line, b.Loc.col))
    !regions

(* ------------------------------------------------------------------ *)
(* Per-function facts and summary                                      *)
(* ------------------------------------------------------------------ *)

(* Everything the four analyses conclude about one defined function.
   This is the only place a function is lowered for MISRA 2.1/2.2/9.1,
   DF-1/DF-2, the uninit metric and the dataflow report: the consumers
   read these lists instead of re-solving. *)
type func_facts = {
  x_function : string;  (** qualified name *)
  x_blocks : int;
  x_edges : int;
  x_unreachable : Loc.t list;  (** first location of each dead region *)
  x_dead_stores : dead_store list;
      (** both kinds; rule 2.2 keeps the [Sassign] ones *)
  x_uninit_reads : uninit_finding list;
  x_const_conditions : const_cond list;  (** propagated ones only *)
}

let facts_of_func (fn : Ast.func) =
  let lw = lower (Cfg.of_func fn) in
  {
    x_function = lw.fname;
    x_blocks = Cfg.n_blocks lw.cfg;
    x_edges = Cfg.n_edges lw.cfg;
    x_unreachable = unreachable_regions lw;
    x_dead_stores = dead_stores lw;
    x_uninit_reads = uninit_reads_of_lowered lw;
    x_const_conditions =
      List.filter (fun c -> c.c_propagated) (constant_conditions lw);
  }

(** [pair_facts fns facts] pairs each defined function with its fact
    record; the two lists must be in the same order.
    @raise Invalid_argument when they do not match. *)
let pair_facts fns facts =
  if List.length fns <> List.length facts then
    invalid_arg "Dataflow.Analyses.pair_facts: one fact record per function";
  List.map2
    (fun fn x ->
      if Ast.qualified_name fn <> x.x_function then
        invalid_arg
          ("Dataflow.Analyses.pair_facts: facts of " ^ x.x_function
         ^ " given for " ^ Ast.qualified_name fn);
      (fn, x))
    fns facts

type func_summary = {
  s_function : string;
  s_blocks : int;
  s_edges : int;
  s_unreachable : int;  (** unreachable code regions *)
  s_dead_stores : int;
  s_uninit_reads : int;
  s_const_conditions : int;  (** propagated constants only *)
}

let summary_of_facts x =
  {
    s_function = x.x_function;
    s_blocks = x.x_blocks;
    s_edges = x.x_edges;
    s_unreachable = List.length x.x_unreachable;
    s_dead_stores = List.length x.x_dead_stores;
    s_uninit_reads = List.length x.x_uninit_reads;
    s_const_conditions = List.length x.x_const_conditions;
  }

(* Journal every concrete fact the four analyses surface, each with the
   dataflow evidence that justifies it.  These are the raw facts; the
   DF-*/9.1 MISRA rules journal their own (kind "misra") findings on top
   of the subset they report. *)
let record_findings x =
  let fname = x.x_function and blocks = x.x_blocks and edges = x.x_edges in
  List.iter
    (fun (loc : Loc.t) ->
      Provenance.record
        (Provenance.make ~kind:"dataflow" ~analysis:"unreachable-region" ~loc
           ~message:(Printf.sprintf "unreachable code region in %s" fname)
           ~witness:
             [
               Provenance.step ~loc "region" "first instruction of the dead region";
               Provenance.step "reachability"
                 "no path from entry reaches this block (CFG: %d blocks, %d edges)"
                 blocks edges;
             ]
           ()))
    x.x_unreachable;
  List.iter
    (fun (d : dead_store) ->
      let what =
        match d.d_kind with Sassign -> "value assigned" | Sdecl_init -> "initializer"
      in
      Provenance.record
        (Provenance.make ~kind:"dataflow" ~analysis:"dead-store" ~loc:d.d_loc
           ~message:
             (Printf.sprintf "%s to %s is never read in %s" what d.d_var fname)
           ~witness:
             [
               Provenance.step ~loc:d.d_loc "store" "%s to %s" what d.d_var;
               Provenance.step "liveness"
                 "%s is not live after this store on any path (CFG: %d blocks, %d edges)"
                 d.d_var blocks edges;
             ]
           ()))
    x.x_dead_stores;
  List.iter
    (fun (u : uninit_finding) ->
      Provenance.record
        (Provenance.make ~kind:"dataflow" ~analysis:"uninit-read"
           ~loc:u.u_use_loc
           ~message:
             (Printf.sprintf "%s may be read uninitialized in %s" u.u_var fname)
           ~witness:
             [
               Provenance.step ~loc:u.u_decl_loc "decl"
                 "%s declared without an initializer" u.u_var;
               Provenance.step ~loc:u.u_use_loc "use"
                 "earliest read of %s; definite assignment does not hold on some path"
                 u.u_var;
             ]
           ()))
    x.x_uninit_reads;
  List.iter
    (fun (c : const_cond) ->
      let value = if c.c_value then "true" else "false" in
      Provenance.record
        (Provenance.make ~kind:"dataflow" ~analysis:"constant-condition"
           ~loc:c.c_loc
           ~message:(Printf.sprintf "condition is always %s in %s" value fname)
           ~witness:
             [
               Provenance.step ~loc:c.c_loc "condition"
                 "controlling expression folds to %s" value;
               Provenance.step "reaching-definitions"
                 "every definition reaching the condition assigns the same constant";
             ]
           ()))
    x.x_const_conditions

(* [facts_of_func] plus the per-function telemetry and journal entries. *)
let solve_func (fn : Ast.func) =
  Telemetry.timed "dataflow.fn_us" @@ fun () ->
  let x = facts_of_func fn in
  Telemetry.observe "dataflow.fn_blocks" (float_of_int x.x_blocks);
  record_findings x;
  x

let facts_of_functions fns =
  let fns = List.filter (fun (fn : Ast.func) -> fn.Ast.f_body <> None) fns in
  Telemetry.with_span ~cat:"dataflow" "dataflow"
    ~attrs:[ ("functions", string_of_int (List.length fns)) ]
    (fun () ->
      (* Each function's CFG + four fixpoint solves is independent;
         fan out across the domain pool in input order (exact List.map
         at --jobs 1).  Findings recorded on workers come back with each
         function's result and are absorbed in input order, so the
         journal merge is deterministic. *)
      let results =
        Telemetry.parallel_map
          (fun fn -> Provenance.collect (fun () -> solve_func fn))
          fns
      in
      let facts =
        List.map
          (fun (x, findings) ->
            Provenance.absorb findings;
            x)
          results
      in
      Telemetry.add "dataflow.functions" (List.length facts);
      facts)

(** [facts_of_file ~path ~key fns] is {!facts_of_functions} [(fns ())]
    memoized in the global artifact cache (when enabled) under the
    per-file cache key [key] (path + content hash + type-scan hash, see
    [Cfront.Project.file_keys]), which is read only when the cache is
    on.  The artifact stores the facts {e and} the provenance findings
    the solves recorded, so a hit replays the findings and the evidence
    journal stays byte-identical to a cold run.  A hit does not call
    [fns], so it forces no unit.  [path] owns the artifact, which is
    swept when the path leaves the tree. *)
let facts_of_file ~path ~key fns =
  match Cache.global () with
  | None -> facts_of_functions (fns ())
  | Some c ->
    let ckey = Cache.key ~kind:"dataflow" [ key ] in
    (match Cache.find c ~kind:"dataflow" ~key:ckey with
     | Some ((facts : func_facts list), findings) ->
       Provenance.absorb findings;
       Telemetry.add "dataflow.functions" (List.length facts);
       facts
     | None ->
       let fns = fns () in
       let facts, findings =
         Provenance.collect (fun () -> facts_of_functions fns)
       in
       Cache.store c ~owner:path ~kind:"dataflow" ~key:ckey (facts, findings);
       Provenance.absorb findings;
       facts)

(** Facts of every defined function of [parsed], by file path in
    [parsed.files] order; each file's list follows
    [Project.defined_functions [pf]], so the concatenation follows
    [Project.all_functions parsed].  With the cache on, each file is
    one {!facts_of_file} artifact, and a file whose artifact hits is
    not forced.  Files are taken one at a time on the calling domain,
    so a unit is only ever forced there. *)
let facts_of_parsed (parsed : Project.parsed) =
  let file (pf : Project.parsed_file) key =
    let path = pf.Project.file.Project.path in
    (path, facts_of_file ~path ~key (fun () -> Project.defined_functions [ pf ]))
  in
  match Cache.global () with
  | None -> List.map (fun pf -> file pf "") parsed.Project.files
  | Some _ -> List.map2 file parsed.Project.files (Project.file_keys parsed)

type totals = {
  t_functions : int;
  t_blocks : int;
  t_edges : int;
  t_unreachable : int;
  t_dead_stores : int;
  t_uninit_reads : int;
  t_const_conditions : int;
}

let zero_totals =
  { t_functions = 0; t_blocks = 0; t_edges = 0; t_unreachable = 0;
    t_dead_stores = 0; t_uninit_reads = 0; t_const_conditions = 0 }

let add_totals a b =
  {
    t_functions = a.t_functions + b.t_functions;
    t_blocks = a.t_blocks + b.t_blocks;
    t_edges = a.t_edges + b.t_edges;
    t_unreachable = a.t_unreachable + b.t_unreachable;
    t_dead_stores = a.t_dead_stores + b.t_dead_stores;
    t_uninit_reads = a.t_uninit_reads + b.t_uninit_reads;
    t_const_conditions = a.t_const_conditions + b.t_const_conditions;
  }

let totals_of summaries =
  List.fold_left
    (fun t s ->
      {
        t_functions = t.t_functions + 1;
        t_blocks = t.t_blocks + s.s_blocks;
        t_edges = t.t_edges + s.s_edges;
        t_unreachable = t.t_unreachable + s.s_unreachable;
        t_dead_stores = t.t_dead_stores + s.s_dead_stores;
        t_uninit_reads = t.t_uninit_reads + s.s_uninit_reads;
        t_const_conditions = t.t_const_conditions + s.s_const_conditions;
      })
    zero_totals summaries
