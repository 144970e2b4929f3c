(** Function- and memory-related rules (MISRA C:2012 sections 17-21). *)

open Cfront

(* 17.1: the features of <stdarg.h> shall not be used. *)
type variadic = { va_info : Rule.fn_info; mutable uses_va : bool }

let r17_1 =
  Rule.visitor ~id:"17.1" ~title:"no variadic functions" ~category:Rule.Required
    (Rule.Visit
       { stmts = [];
         exprs = [ `Call ];
         start = (fun va_info -> { va_info; uses_va = false });
         stmt = (fun _ _ -> ());
         expr =
           (fun x e ->
             match e.Ast.e with
             | Ast.Call ({ e = Ast.Id ("va_start" | "va_arg" | "va_end"); _ }, _) ->
               x.uses_va <- true
             | _ -> ());
         finish =
           (fun x ->
             let fn = x.va_info.Rule.fn in
             if x.uses_va || List.exists (fun p -> p.Ast.p_name = "...") fn.Ast.f_params
             then
               [ Rule.v ~rule_id:"17.1" ~loc:fn.Ast.f_loc "variadic function %s"
                   (Rule.name x.va_info) ]
             else []) })

(* The functions on a recursion cycle of the interproc summary (every
   function of a multi-node SCC or with a self-call), by qualified name. *)
let recursive_functions (ctx : Rule.context) =
  let t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun q -> Hashtbl.replace t q ()))
    ctx.Rule.interproc.Interproc.Summary.cycles;
  t

(* 17.2: functions shall not call themselves, directly or indirectly. *)
let r17_2 =
  Rule.make ~id:"17.2" ~title:"no recursion" ~category:Rule.Required (fun ctx ->
      let cycles = ctx.Rule.interproc.Interproc.Summary.cycles in
      let recursive = recursive_functions ctx in
      let cycle_of q = List.find_opt (fun c -> List.mem q c) cycles in
      let witness q =
        match cycle_of q with
        | Some [ _ ] | None -> "calls itself"
        | Some cycle ->
          Printf.sprintf "cycle: %s -> %s" (String.concat " -> " cycle)
            (List.hd cycle)
      in
      List.filter_map
        (fun (fn : Ast.func) ->
          let q = Ast.qualified_name fn in
          if Hashtbl.mem recursive q then
            let steps =
              match cycle_of q with
              | Some (_ :: _ :: _ as cycle) ->
                List.mapi
                  (fun i callee ->
                    Provenance.step "call" "%s calls %s"
                      (List.nth cycle i) callee)
                  (List.tl cycle @ [ List.hd cycle ])
              | _ -> [ Provenance.step "call" "%s calls itself directly" q ]
            in
            Some
              (Rule.v ~witness:steps ~rule_id:"17.2" ~loc:fn.Ast.f_loc
                 "%s is recursive (%s)" q (witness q))
          else None)
        ctx.Rule.functions)

(* 17.7: the value returned by a non-void function shall be used. *)
let r17_7 =
  Rule.make ~id:"17.7" ~title:"return values shall be used" ~category:Rule.Required
    (fun ctx ->
      List.map
        (fun (caller, callee, loc) ->
          Rule.v ~rule_id:"17.7" ~loc "%s discards return value of %s" caller callee)
        ctx.Rule.ignored_returns)

(* 17.8: a function parameter should not be modified.  The rule reports
   tens of thousands of sites on the full corpus, so the message is
   built without a format. *)
type params = { p_found : Rule.found; names : string list }

let r17_8 =
  Rule.visitor ~id:"17.8" ~title:"function parameters shall not be modified"
    ~category:Rule.Advisory
    (Rule.Visit
       { stmts = [];
         exprs = [ `Assign; `Unary; `Postfix ];
         start =
           (fun info ->
             { p_found = { Rule.info; found = [] };
               names = List.map (fun p -> p.Ast.p_name) info.Rule.fn.Ast.f_params });
         stmt = (fun _ _ -> ());
         expr =
           (fun p e ->
             match e.Ast.e with
             | Ast.Assign (_, { e = Ast.Id name; _ }, _)
             | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), { e = Ast.Id name; _ })
             | Ast.Postfix (_, { e = Ast.Id name; _ })
               when List.mem name p.names ->
               Rule.emit p.p_found
                 { Rule.rule_id = "17.8"; loc = e.Ast.eloc; witness = [];
                   message =
                     String.concat ""
                       [ "parameter "; name; " modified in "; Rule.name p.p_found.Rule.info ] }
             | _ -> ());
         finish = (fun p -> List.rev p.p_found.Rule.found) })

(* 21.3: the memory allocation functions of <stdlib.h> shall not be used. *)
let r21_3 =
  Rule.make ~id:"21.3" ~title:"no dynamic heap allocation" ~category:Rule.Required
    (fun ctx ->
      List.map
        (fun (a : Metrics.Pointers.dyn_alloc) ->
          Rule.v ~rule_id:"21.3" ~loc:a.Metrics.Pointers.loc "%s used in %s"
            a.Metrics.Pointers.site a.Metrics.Pointers.in_function)
        ctx.Rule.dyn_allocs)

(* [banned_call ~rule_id ~title names]: every call of one of [names]
   by its plain name.  Rules 21.4–21.10 ban library families this way. *)
let banned_call ~rule_id ~title names =
  Rule.visitor ~id:rule_id ~title ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Call ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Call ({ e = Ast.Id name; _ }, _) when List.mem name names ->
           Rule.emit a
             (Rule.v ~rule_id ~loc:e.Ast.eloc "%s called in %s" name
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 21.6: the standard I/O functions shall not be used. *)
let r21_6 =
  banned_call ~rule_id:"21.6" ~title:"no standard I/O in production code"
    [ "printf"; "fprintf"; "sprintf"; "scanf"; "fscanf"; "gets"; "puts" ]

(* 21.8: the termination functions of <stdlib.h> shall not be used. *)
let r21_8 =
  banned_call ~rule_id:"21.8" ~title:"no abort/exit/system"
    [ "abort"; "exit"; "_Exit"; "quick_exit"; "system" ]

(* 8.10: an inline function shall also be static. *)
let r8_10 =
  Rule.make ~id:"8.10" ~title:"inline functions shall be static"
    ~category:Rule.Required (fun ctx ->
      List.filter_map
        (fun (fn : Ast.func) ->
          if List.mem Ast.Q_inline fn.Ast.f_quals
             && not (List.mem Ast.Q_static fn.Ast.f_quals)
          then
            Some
              (Rule.v ~rule_id:"8.10" ~loc:fn.Ast.f_loc
                 "inline function %s is not static" (Ast.qualified_name fn))
          else None)
        ctx.Rule.functions)

(* 2.7: there should be no unused parameters.  Only the parameters'
   names are looked up, so each identifier is compared with those. *)
type uses = { u_info : Rule.fn_info; params : string array; used : bool array }

let r2_7 =
  Rule.visitor ~id:"2.7" ~title:"no unused parameters" ~category:Rule.Advisory
    (Rule.Visit
       { stmts = [];
         exprs = [ `Id ];
         start =
           (fun u_info ->
             let params =
               Array.of_list (List.map (fun p -> p.Ast.p_name) u_info.Rule.fn.Ast.f_params)
             in
             { u_info; params; used = Array.make (Array.length params) false });
         stmt = (fun _ _ -> ());
         expr =
           (fun u e ->
             match e.Ast.e with
             | Ast.Id name ->
               Array.iteri
                 (fun i p -> if String.equal p name then u.used.(i) <- true)
                 u.params
             | _ -> ());
         finish =
           (fun u ->
             let fn = u.u_info.Rule.fn in
             match fn.Ast.f_body with
             | None -> []
             | Some _ ->
               List.concat
                 (List.mapi
                    (fun i (p : Ast.param) ->
                      if p.Ast.p_name <> "" && p.Ast.p_name <> "..." && not u.used.(i) then
                        [ Rule.v ~rule_id:"2.7" ~loc:fn.Ast.f_loc "unused parameter %s in %s"
                            p.Ast.p_name (Rule.name u.u_info) ]
                      else [])
                    fn.Ast.f_params)) })

(* 8.9: an object should be declared at block scope if only used in one
   function.  Only the names of [ctx.globals] are tracked, each with the
   qualified name of its one user or [Many]; a function's qualified name
   is computed once, and overloads sharing it count as one user.  Every
   identifier of every function is looked up, so the table compares keys
   with [String.equal] rather than polymorphic compare. *)
type user_count = No_user | One of string | Many

module Names = Hashtbl.Make (String)

let r8_9 =
  Rule.make ~id:"8.9" ~title:"globals used by a single function shall be local"
    ~category:Rule.Advisory (fun ctx ->
      let users = Names.create (List.length ctx.Rule.globals) in
      List.iter
        (fun (g : Metrics.Globals.record) ->
          Names.replace users g.Metrics.Globals.name (ref No_user))
        ctx.Rule.globals;
      List.iter
        (fun (fn : Ast.func) ->
          let q = Ast.qualified_name fn in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Id name -> (
                match Names.find_opt users name with
                | Some ({ contents = No_user } as r) -> r := One q
                | Some ({ contents = One q' } as r) when not (String.equal q' q) -> r := Many
                | Some _ | None -> ())
              | _ -> ())
            fn)
        ctx.Rule.functions;
      List.filter_map
        (fun (g : Metrics.Globals.record) ->
          match !(Names.find users g.Metrics.Globals.name) with
          | One only ->
            Some
              (Rule.v ~rule_id:"8.9" ~loc:g.Metrics.Globals.loc
                 "global %s used only by %s" g.Metrics.Globals.name only)
          | No_user | Many -> None)
        ctx.Rule.globals)

(* 21.x addition in spirit: uninitialized reads (9.1 "the value of an
   object with automatic storage duration shall not be read before it has
   been set"). *)
let r9_1 =
  Rule.make ~id:"9.1" ~title:"no read of uninitialized automatic objects"
    ~category:Rule.Mandatory (fun ctx ->
      List.map
        (fun (f : Metrics.Uninit.finding) ->
          let witness =
            [
              Provenance.step ~loc:f.Metrics.Uninit.decl_loc "decl"
                "%s declared without an initializer in %s" f.Metrics.Uninit.var
                f.Metrics.Uninit.in_function;
              Provenance.step ~loc:f.Metrics.Uninit.use_loc "use"
                "earliest read of %s with no assignment on some path"
                f.Metrics.Uninit.var;
            ]
          in
          Rule.v ~witness ~rule_id:"9.1" ~loc:f.Metrics.Uninit.use_loc
            "%s may be read uninitialized in %s" f.Metrics.Uninit.var
            f.Metrics.Uninit.in_function)
        (Metrics.Uninit.of_facts ctx.Rule.facts))

let all = [ r2_7; r8_9; r8_10; r9_1; r17_1; r17_2; r17_7; r17_8; r21_3; r21_6; r21_8 ]
