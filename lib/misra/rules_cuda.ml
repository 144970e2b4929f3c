(** CUDA extension rules.

    The paper's Observation 3 is that *no* language subset exists for GPU
    code ("No guideline or language subset exist for GPU code to
    facilitate code safety assessment").  These rules are our
    proof-of-concept answer: a candidate MISRA-CUDA subset that a checker
    can enforce mechanically, covering the hazards the paper highlights in
    §3.1.2 (pointers, dynamic device memory, unchecked thread bounds). *)

open Cfront

let is_kernel (fn : Ast.func) = List.mem Ast.Q_global fn.Ast.f_quals
let is_device (fn : Ast.func) =
  List.mem Ast.Q_global fn.Ast.f_quals || List.mem Ast.Q_device fn.Ast.f_quals

let kernels ctx = List.filter is_kernel ctx.Rule.functions
let device_fns ctx = List.filter is_device ctx.Rule.functions

(* CUDA-1: a kernel that derives an index from threadIdx/blockIdx shall
   guard global-memory accesses with a bound check. *)
type guard = {
  g_info : Rule.fn_info;
  kernel : bool;
  mutable uses_thread_idx : bool;
  mutable has_guard : bool;
}

let cuda_1 =
  Rule.visitor ~id:"CUDA-1" ~title:"kernels shall bound-check thread indices"
    ~category:Rule.Required
    (Rule.Visit
       { stmts = [ `Sif ];
         exprs = [ `Member ];
         start =
           (fun g_info ->
             { g_info; kernel = is_kernel g_info.Rule.fn; uses_thread_idx = false;
               has_guard = false });
         stmt =
           (fun g s ->
             match s.Ast.s with
             | Ast.Sif { cond; _ } when g.kernel ->
               (* any comparison in an if counts as a guard *)
               Ast.iter_exprs_of_expr
                 (fun e ->
                   match e.Ast.e with
                   | Ast.Binary ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) ->
                     g.has_guard <- true
                   | _ -> ())
                 cond
             | _ -> ());
         expr =
           (fun g e ->
             match e.Ast.e with
             | Ast.Member { obj = { e = Ast.Id ("threadIdx" | "blockIdx"); _ }; _ } ->
               g.uses_thread_idx <- true
             | _ -> ());
         finish =
           (fun g ->
             if g.kernel && g.uses_thread_idx && not g.has_guard then
               [ Rule.v ~rule_id:"CUDA-1" ~loc:g.g_info.Rule.fn.Ast.f_loc
                   "kernel %s indexes by thread id without a bound check"
                   (Rule.name g.g_info) ]
             else []) })

(* CUDA-2: no dynamic allocation inside device code. *)
let cuda_2 =
  Rule.make ~id:"CUDA-2" ~title:"no dynamic allocation in device code"
    ~category:Rule.Mandatory (fun ctx ->
      List.concat_map
        (fun fn ->
          List.map
            (fun (a : Metrics.Pointers.dyn_alloc) ->
              Rule.v ~rule_id:"CUDA-2" ~loc:a.Metrics.Pointers.loc
                "%s inside device function %s" a.Metrics.Pointers.site
                a.Metrics.Pointers.in_function)
            (Metrics.Pointers.dyn_allocs_of_func fn))
        (device_fns ctx))

(* CUDA-3: every cudaMalloc shall have a matching cudaFree in the same
   translation unit. *)
let cuda_3 =
  Rule.make ~id:"CUDA-3" ~title:"cudaMalloc shall pair with cudaFree"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun pf ->
          let fns =
            List.filter
              (fun (f : Ast.func) -> f.Ast.f_body <> None)
              (Ast.functions_of_tu (Project.tu pf))
          in
          let mallocs = ref 0 and frees = ref 0 in
          List.iter
            (Ast.iter_exprs_of_func (fun e ->
                 match e.Ast.e with
                 | Ast.Call ({ e = Ast.Id "cudaMalloc"; _ }, _) -> incr mallocs
                 | Ast.Call ({ e = Ast.Id "cudaFree"; _ }, _) -> incr frees
                 | _ -> ()))
            fns;
          let mallocs = !mallocs and frees = !frees in
          if mallocs > frees then
            [ Rule.v ~rule_id:"CUDA-3"
                ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line:1 ~col:1)
                "%d cudaMalloc vs %d cudaFree in %s" mallocs frees
                (Project.tu pf).Ast.tu_file ]
          else [])
        ctx.Rule.files)

(* CUDA-4: kernel launches shall check for errors (a cudaGetLastError or
   cudaDeviceSynchronize call shall follow a launch in the same function). *)
type launches = { l_info : Rule.fn_info; mutable has_launch : bool; mutable has_check : bool }

let cuda_4 =
  Rule.visitor ~id:"CUDA-4" ~title:"kernel launches shall be error-checked"
    ~category:Rule.Required
    (Rule.Visit
       { stmts = [];
         exprs = [ `Kernel_launch; `Call ];
         start = (fun l_info -> { l_info; has_launch = false; has_check = false });
         stmt = (fun _ _ -> ());
         expr =
           (fun l e ->
             match e.Ast.e with
             | Ast.Kernel_launch _ -> l.has_launch <- true
             | Ast.Call
                 ({ e = Ast.Id ("cudaGetLastError" | "cudaDeviceSynchronize"
                               | "cudaPeekAtLastError"); _ }, _) ->
               l.has_check <- true
             | _ -> ());
         finish =
           (fun l ->
             if l.has_launch && not l.has_check then
               [ Rule.v ~rule_id:"CUDA-4" ~loc:l.l_info.Rule.fn.Ast.f_loc
                   "%s launches kernels without error checking" (Rule.name l.l_info) ]
             else []) })

(* CUDA-5: device functions shall not be recursive (stack depth on GPU is
   severely limited and unanalyzable). *)
let cuda_5 =
  Rule.make ~id:"CUDA-5" ~title:"no recursion in device code"
    ~category:Rule.Mandatory (fun ctx ->
      let recursive = Rules_functions.recursive_functions ctx in
      List.filter_map
        (fun fn ->
          let q = Ast.qualified_name fn in
          if Hashtbl.mem recursive q then
            Some (Rule.v ~rule_id:"CUDA-5" ~loc:fn.Ast.f_loc "device function %s is recursive" q)
          else None)
        (device_fns ctx))

(* CUDA-6: raw pointer parameters of kernels shall be __restrict__
   qualified or const — approximated: kernels with more than 4 raw pointer
   parameters are flagged as alias-analysis hazards. *)
let cuda_6 =
  Rule.make ~id:"CUDA-6" ~title:"kernels shall limit raw pointer parameters"
    ~category:Rule.Advisory (fun ctx ->
      List.filter_map
        (fun (fn : Ast.func) ->
          let ptrs =
            List.length
              (List.filter (fun p -> Ast.is_pointer_type p.Ast.p_type) fn.Ast.f_params)
          in
          if ptrs > 4 then
            Some
              (Rule.v ~rule_id:"CUDA-6" ~loc:fn.Ast.f_loc
                 "kernel %s takes %d raw pointer parameters" (Ast.qualified_name fn) ptrs)
          else None)
        (kernels ctx))

let all = [ cuda_1; cuda_2; cuda_3; cuda_4; cuda_5; cuda_6 ]
