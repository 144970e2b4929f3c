(* Fixtures shared by the suites. *)

(* [parsed_of_files files] wraps hand-parsed files as a project, one
   module per [modname] in first-seen order, so that a test can hand
   them to the producers that take a [Cfront.Project.parsed].  Each
   file's content hash is the one [Cfront.Project.parse] takes, since
   every producer keys its artifacts on them; the type-scan hash stays
   empty, as no fixture runs under a store. *)
let parsed_of_files (files : Cfront.Project.parsed_file list) =
  let modname (pf : Cfront.Project.parsed_file) = pf.Cfront.Project.file.Cfront.Project.modname in
  let modnames =
    List.fold_left
      (fun acc pf -> if List.mem (modname pf) acc then acc else acc @ [ modname pf ])
      [] files
  in
  let modul m =
    { Cfront.Project.m_name = m;
      m_files =
        List.filter_map
          (fun pf -> if modname pf = m then Some pf.Cfront.Project.file else None)
          files }
  in
  { Cfront.Project.project = Cfront.Project.make ~name:"fixture" (List.map modul modnames);
    files;
    types_key = "";
    hashes =
      List.map
        (fun (pf : Cfront.Project.parsed_file) ->
          Cache.fnv1a64 pf.Cfront.Project.file.Cfront.Project.content)
        files }

(* The rule context of hand-parsed files, from the one producer. *)
let context_of_files files = Misra.Rule.build_context (parsed_of_files files)

(* Run [tus] from [entry] on the shipped coverage engine: compile them
   into one program (so each unit needs its own path), load it into a
   fresh environment and call the entry.  Returns the result and the
   environment, for the printed output and the step count. *)
let run_coverage ?hooks ?max_steps ?(entry = "main") tus =
  let env = Coverage.Runtime.create ?hooks ?max_steps () in
  (Coverage.Exec.run env (Coverage.Compile.compile tus) ~entry ~args:[], env)

(* The shipped binary: the suites depend on it, and dune builds it next
   to them. *)
let adcheck_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/adcheck.exe"

(* Run [adcheck args] (a shell-quoted argument string) and return its
   exit code and standard output. *)
let run_adcheck args =
  let out = Filename.temp_file "adcheck-out" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s" (Filename.quote adcheck_exe) args
         (Filename.quote out))
  in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (rc, s)
