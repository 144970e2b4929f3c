(** Basic-block control-flow graphs over [Cfront.Ast.func] bodies.

    Statements are lowered to a flat array of blocks holding straight-line
    instruction lists; all control transfer lives on the edges.  Branch
    conditions are decomposed through short-circuit [&&]/[||]/[!], so each
    [Icond] instruction is an atomic condition and every dataflow client
    sees condition-level precision for free.

    After an unconditional jump (return/break/continue/goto) lowering
    continues into a fresh block with no incoming edge, so syntactically
    dead statements survive as unreachable blocks — exactly what the
    MISRA 2.1 reachability check wants to find. *)

open Cfront

(** Why a condition exists, for checks that treat loop idioms specially. *)
type cond_origin = Cif | Cwhile | Cdo | Cfor

type instr_desc =
  | Idecl of Ast.var_decl  (** local declaration; initializer evaluated *)
  | Iexpr of Ast.expr  (** expression evaluated for its effect *)
  | Icond of Ast.expr * cond_origin
      (** atomic branch condition; always last in its block, out-edges
          are [Etrue]/[Efalse] *)
  | Iswitch of Ast.expr  (** switch scrutinee; out-edges are [Ecase]/[Edefault] *)
  | Ireturn of Ast.expr option

type instr = { i : instr_desc; iloc : Loc.t }

type edge_kind = Eseq | Etrue | Efalse | Ecase | Edefault

type block = {
  bid : int;
  mutable instrs : instr list;  (** in execution order *)
  mutable succs : (int * edge_kind) list;
  mutable preds : int list;
}

type t = {
  func : Ast.func;
  blocks : block array;  (** [blocks.(i).bid = i]; construction order
                             follows source order *)
  entry : int;
  exit_ : int;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable rev_blocks : block list;
  mutable n_blocks : int;
  by_id : (int, block) Hashtbl.t;
  mutable cur : block;
  mutable breaks : int list;  (** innermost break target first *)
  mutable continues : int list;
  mutable switches : switch_ctx list;
  labels : (string, int) Hashtbl.t;
  bexit : int;
}

and switch_ctx = { head : int; mutable seen_default : bool }

let new_block_raw b =
  let blk = { bid = b.n_blocks; instrs = []; succs = []; preds = [] } in
  b.n_blocks <- b.n_blocks + 1;
  b.rev_blocks <- blk :: b.rev_blocks;
  Hashtbl.add b.by_id blk.bid blk;
  blk

let find_block b id = Hashtbl.find b.by_id id

let add_edge b ~src ~dst kind =
  let s = find_block b src in
  if not (List.exists (fun (d, k) -> d = dst && k = kind) s.succs) then begin
    s.succs <- (dst, kind) :: s.succs;
    let d = find_block b dst in
    d.preds <- src :: d.preds
  end

let emit b i iloc = b.cur.instrs <- { i; iloc } :: b.cur.instrs

(** Switch to a fresh current block with no incoming edge (the code that
    follows an unconditional jump). *)
let start_dead_block b = b.cur <- new_block_raw b

(** Jump to [dst] and continue lowering into a dead block. *)
let goto_block b dst kind =
  add_edge b ~src:b.cur.bid ~dst kind;
  start_dead_block b

let label_block b name =
  match Hashtbl.find_opt b.labels name with
  | Some id -> id
  | None ->
    let blk = new_block_raw b in
    Hashtbl.add b.labels name blk.bid;
    blk.bid

(* Decompose a controlling expression into atomic conditions with explicit
   short-circuit edges.  On return the current block is a fresh dead block
   (every path out of the condition went to [t] or [f]). *)
let rec lower_cond b origin (e : Ast.expr) ~t ~f =
  match e.Ast.e with
  | Ast.Binary (Ast.Land, a, rhs) ->
    let mid = new_block_raw b in
    lower_cond b origin a ~t:mid.bid ~f;
    b.cur <- mid;
    lower_cond b origin rhs ~t ~f
  | Ast.Binary (Ast.Lor, a, rhs) ->
    let mid = new_block_raw b in
    lower_cond b origin a ~t ~f:mid.bid;
    b.cur <- mid;
    lower_cond b origin rhs ~t ~f
  | Ast.Unary (Ast.Lnot, a) -> lower_cond b origin a ~t:f ~f:t
  | _ ->
    emit b (Icond (e, origin)) e.Ast.eloc;
    add_edge b ~src:b.cur.bid ~dst:t Etrue;
    add_edge b ~src:b.cur.bid ~dst:f Efalse;
    start_dead_block b

let rec lower_stmt b (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Sempty -> ()
  | Ast.Sexpr e -> emit b (Iexpr e) s.Ast.sloc
  | Ast.Sdecl ds -> List.iter (fun d -> emit b (Idecl d) d.Ast.v_loc) ds
  | Ast.Sblock ss -> List.iter (lower_stmt b) ss
  | Ast.Sif { cond; then_; else_ } ->
    let bthen = new_block_raw b in
    let belse = match else_ with Some _ -> Some (new_block_raw b) | None -> None in
    let join = new_block_raw b in
    let ftarget = match belse with Some blk -> blk.bid | None -> join.bid in
    lower_cond b Cif cond ~t:bthen.bid ~f:ftarget;
    b.cur <- bthen;
    lower_stmt b then_;
    add_edge b ~src:b.cur.bid ~dst:join.bid Eseq;
    (match belse, else_ with
     | Some blk, Some es ->
       b.cur <- blk;
       lower_stmt b es;
       add_edge b ~src:b.cur.bid ~dst:join.bid Eseq
     | _ -> ());
    b.cur <- join
  | Ast.Swhile (c, body) ->
    let head = new_block_raw b in
    let bbody = new_block_raw b in
    let bexit = new_block_raw b in
    add_edge b ~src:b.cur.bid ~dst:head.bid Eseq;
    b.cur <- head;
    lower_cond b Cwhile c ~t:bbody.bid ~f:bexit.bid;
    b.cur <- bbody;
    b.breaks <- bexit.bid :: b.breaks;
    b.continues <- head.bid :: b.continues;
    lower_stmt b body;
    b.breaks <- List.tl b.breaks;
    b.continues <- List.tl b.continues;
    add_edge b ~src:b.cur.bid ~dst:head.bid Eseq;
    b.cur <- bexit
  | Ast.Sdo_while (body, c) ->
    let bbody = new_block_raw b in
    let bcond = new_block_raw b in
    let bexit = new_block_raw b in
    add_edge b ~src:b.cur.bid ~dst:bbody.bid Eseq;
    b.cur <- bbody;
    b.breaks <- bexit.bid :: b.breaks;
    b.continues <- bcond.bid :: b.continues;
    lower_stmt b body;
    b.breaks <- List.tl b.breaks;
    b.continues <- List.tl b.continues;
    add_edge b ~src:b.cur.bid ~dst:bcond.bid Eseq;
    b.cur <- bcond;
    lower_cond b Cdo c ~t:bbody.bid ~f:bexit.bid;
    b.cur <- bexit
  | Ast.Sfor { init; cond; update; body } ->
    (match init with
     | Ast.Fi_decl ds -> List.iter (fun d -> emit b (Idecl d) d.Ast.v_loc) ds
     | Ast.Fi_expr e -> emit b (Iexpr e) e.Ast.eloc
     | Ast.Fi_empty -> ());
    let head = new_block_raw b in
    let bbody = new_block_raw b in
    let bupdate = new_block_raw b in
    let bexit = new_block_raw b in
    add_edge b ~src:b.cur.bid ~dst:head.bid Eseq;
    b.cur <- head;
    (match cond with
     | Some c -> lower_cond b Cfor c ~t:bbody.bid ~f:bexit.bid
     | None -> add_edge b ~src:head.bid ~dst:bbody.bid Eseq);
    b.cur <- bbody;
    b.breaks <- bexit.bid :: b.breaks;
    b.continues <- bupdate.bid :: b.continues;
    lower_stmt b body;
    b.breaks <- List.tl b.breaks;
    b.continues <- List.tl b.continues;
    add_edge b ~src:b.cur.bid ~dst:bupdate.bid Eseq;
    b.cur <- bupdate;
    Option.iter (fun e -> emit b (Iexpr e) e.Ast.eloc) update;
    add_edge b ~src:b.cur.bid ~dst:head.bid Eseq;
    b.cur <- bexit
  | Ast.Sswitch (e, body) ->
    emit b (Iswitch e) s.Ast.sloc;
    let head = b.cur.bid in
    let bexit = new_block_raw b in
    let ctx = { head; seen_default = false } in
    b.switches <- ctx :: b.switches;
    b.breaks <- bexit.bid :: b.breaks;
    (* statements before the first case label are unreachable; drop into a
       dead block so they are modelled as such *)
    start_dead_block b;
    lower_stmt b body;
    b.breaks <- List.tl b.breaks;
    b.switches <- List.tl b.switches;
    (* last clause falls off the end of the switch *)
    add_edge b ~src:b.cur.bid ~dst:bexit.bid Eseq;
    if not ctx.seen_default then
      (* no default: the scrutinee may match nothing *)
      add_edge b ~src:head ~dst:bexit.bid Edefault;
    b.cur <- bexit
  | Ast.Scase _ ->
    (match b.switches with
     | ctx :: _ ->
       let clause = new_block_raw b in
       (* fall-through from the previous clause *)
       add_edge b ~src:b.cur.bid ~dst:clause.bid Eseq;
       add_edge b ~src:ctx.head ~dst:clause.bid Ecase;
       b.cur <- clause
     | [] -> ())
  | Ast.Sdefault ->
    (match b.switches with
     | ctx :: _ ->
       ctx.seen_default <- true;
       let clause = new_block_raw b in
       add_edge b ~src:b.cur.bid ~dst:clause.bid Eseq;
       add_edge b ~src:ctx.head ~dst:clause.bid Edefault;
       b.cur <- clause
     | [] -> ())
  | Ast.Sbreak ->
    (match b.breaks with
     | dst :: _ -> goto_block b dst Eseq
     | [] -> ())
  | Ast.Scontinue ->
    (match b.continues with
     | dst :: _ -> goto_block b dst Eseq
     | [] -> ())
  | Ast.Sreturn e ->
    emit b (Ireturn e) s.Ast.sloc;
    goto_block b b.bexit Eseq
  | Ast.Sgoto l -> goto_block b (label_block b l) Eseq
  | Ast.Slabel (l, inner) ->
    let dst = label_block b l in
    add_edge b ~src:b.cur.bid ~dst Eseq;
    b.cur <- find_block b dst;
    lower_stmt b inner
  | Ast.Stry { body; catches } ->
    (* conservative: any statement in the try may throw, so each handler
       is entered from the try head with no assignments from the body *)
    let try_head = b.cur.bid in
    let join = new_block_raw b in
    lower_stmt b body;
    add_edge b ~src:b.cur.bid ~dst:join.bid Eseq;
    List.iter
      (fun (_, handler) ->
        let h = new_block_raw b in
        add_edge b ~src:try_head ~dst:h.bid Eseq;
        b.cur <- h;
        lower_stmt b handler;
        add_edge b ~src:b.cur.bid ~dst:join.bid Eseq)
      catches;
    b.cur <- join

(** Lower a function definition.  Raises [Invalid_argument] on a
    prototype. *)
let of_func (fn : Ast.func) =
  match fn.Ast.f_body with
  | None -> invalid_arg "Dataflow.Cfg.of_func: function has no body"
  | Some body ->
    let entry = { bid = 0; instrs = []; succs = []; preds = [] } in
    let exit_ = { bid = 1; instrs = []; succs = []; preds = [] } in
    let by_id = Hashtbl.create 16 in
    Hashtbl.add by_id entry.bid entry;
    Hashtbl.add by_id exit_.bid exit_;
    let b =
      { rev_blocks = [ exit_; entry ]; n_blocks = 2; by_id; cur = entry;
        breaks = []; continues = []; switches = [];
        labels = Hashtbl.create 4; bexit = exit_.bid }
    in
    lower_stmt b body;
    (* falling off the end of the body returns *)
    add_edge b ~src:b.cur.bid ~dst:b.bexit Eseq;
    let blocks = Array.make b.n_blocks entry in
    List.iter (fun blk -> blocks.(blk.bid) <- blk) b.rev_blocks;
    Array.iter
      (fun blk ->
        blk.instrs <- List.rev blk.instrs;
        blk.succs <- List.rev blk.succs;
        blk.preds <- List.sort_uniq compare blk.preds)
      blocks;
    Telemetry.incr "dataflow.cfgs";
    Telemetry.add "dataflow.blocks" b.n_blocks;
    { func = fn; blocks; entry = entry.bid; exit_ = exit_.bid }

(* ------------------------------------------------------------------ *)
(* Simple graph queries                                                *)
(* ------------------------------------------------------------------ *)

let n_blocks cfg = Array.length cfg.blocks

let n_edges cfg =
  Array.fold_left (fun n blk -> n + List.length blk.succs) 0 cfg.blocks

(** Blocks reachable from the entry (the degenerate forward analysis). *)
let reachable cfg =
  let seen = Array.make (n_blocks cfg) false in
  let rec go id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter (fun (dst, _) -> go dst) cfg.blocks.(id).succs
    end
  in
  go cfg.entry;
  seen

(** First source location of a block, if it holds any instruction. *)
let first_loc blk =
  match blk.instrs with [] -> None | { iloc; _ } :: _ -> Some iloc

(* ------------------------------------------------------------------ *)
(* Def/use extraction                                                  *)
(* ------------------------------------------------------------------ *)

(** Simple-variable reads of an expression: every [Id] occurrence except
    the target of a plain assignment and operands of address-of.  Compound
    assignments ([+=] etc.) and increments read their target. *)
let uses_of_expr e =
  let acc = ref [] in
  let rec go e =
    match e.Ast.e with
    | Ast.Id name -> acc := (name, e.Ast.eloc) :: !acc
    | Ast.Unary (Ast.Addr_of, { e = Ast.Id _; _ }) -> ()
    | Ast.Assign (Ast.A_eq, { e = Ast.Id _; _ }, rhs) -> go rhs
    | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), { e = Ast.Id _; _ })
    | Ast.Postfix (_, { e = Ast.Id _; _ }) ->
      (* increments read the old value *)
      (match e.Ast.e with
       | Ast.Unary (_, ({ e = Ast.Id _; _ } as id))
       | Ast.Postfix (_, ({ e = Ast.Id _; _ } as id)) -> go id
       | _ -> ())
    | Ast.Assign (_, lhs, rhs) -> go lhs; go rhs
    | Ast.Unary (_, a) | Ast.Postfix (_, a) | Ast.C_cast (_, a)
    | Ast.Cpp_cast (_, _, a) | Ast.Sizeof_expr a
    | Ast.Delete { target = a; _ } -> go a
    | Ast.Throw a -> Option.iter go a
    | Ast.Binary (_, a, b2) | Ast.Index (a, b2) -> go a; go b2
    | Ast.Ternary (a, b2, c) -> go a; go b2; go c
    | Ast.Call (f, args) -> go f; List.iter go args
    | Ast.Kernel_launch { kernel; grid; block; args } ->
      go kernel; go grid; go block; List.iter go args
    | Ast.Member { obj; _ } -> go obj
    | Ast.New { array_size; init_args; _ } ->
      Option.iter go array_size; List.iter go init_args
    | Ast.Int_const _ | Ast.Float_const _ | Ast.Bool_const _ | Ast.Str_const _
    | Ast.Char_const _ | Ast.Nullptr | Ast.Sizeof_type _ -> ()
  in
  go e;
  List.rev !acc

(** Simple variables written by an expression: assignment to a bare [Id]
    (any operator) and pre/post increment/decrement of a bare [Id]. *)
let defs_of_expr e =
  let acc = ref [] in
  let rec go e =
    (match e.Ast.e with
     | Ast.Assign (_, { e = Ast.Id name; _ }, _)
     | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), { e = Ast.Id name; _ })
     | Ast.Postfix (_, { e = Ast.Id name; _ }) ->
       acc := (name, e.Ast.eloc) :: !acc
     | _ -> ());
    match e.Ast.e with
    | Ast.Unary (_, a) | Ast.Postfix (_, a) | Ast.C_cast (_, a)
    | Ast.Cpp_cast (_, _, a) | Ast.Sizeof_expr a
    | Ast.Delete { target = a; _ } -> go a
    | Ast.Throw a -> Option.iter go a
    | Ast.Binary (_, a, b) | Ast.Index (a, b) | Ast.Assign (_, a, b) -> go a; go b
    | Ast.Ternary (a, b, c) -> go a; go b; go c
    | Ast.Call (f, args) -> go f; List.iter go args
    | Ast.Kernel_launch { kernel; grid; block; args } ->
      go kernel; go grid; go block; List.iter go args
    | Ast.Member { obj; _ } -> go obj
    | Ast.New { array_size; init_args; _ } ->
      Option.iter go array_size; List.iter go init_args
    | Ast.Int_const _ | Ast.Float_const _ | Ast.Bool_const _ | Ast.Str_const _
    | Ast.Char_const _ | Ast.Nullptr | Ast.Id _ | Ast.Sizeof_type _ -> ()
  in
  go e;
  List.rev !acc

(** Variables whose address is taken ([&x]).  A definite-assignment client
    treats these as definitions (out-parameter idiom); a liveness client
    treats them as uses and an escape. *)
let addr_taken_of_expr e =
  let acc = ref [] in
  Ast.iter_exprs_of_expr
    (fun x ->
      match x.Ast.e with
      | Ast.Unary (Ast.Addr_of, { e = Ast.Id name; _ }) -> acc := name :: !acc
      | _ -> ())
    e;
  List.rev !acc

let exprs_of_instr instr =
  match instr.i with
  | Idecl d -> (match d.Ast.v_init with Some e -> [ e ] | None -> [])
  | Iexpr e | Icond (e, _) | Iswitch e -> [ e ]
  | Ireturn (Some e) -> [ e ]
  | Ireturn None -> []

let uses_of_instr instr = List.concat_map uses_of_expr (exprs_of_instr instr)

let defs_of_instr instr =
  let from_exprs = List.concat_map defs_of_expr (exprs_of_instr instr) in
  match instr.i with
  | Idecl { Ast.v_name; v_init = Some _; v_loc; _ } -> (v_name, v_loc) :: from_exprs
  | _ -> from_exprs

let addr_taken_of_instr instr =
  List.concat_map addr_taken_of_expr (exprs_of_instr instr)
