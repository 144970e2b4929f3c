(* Fixtures shared by the suites. *)

(* [parsed_of_files files] wraps hand-parsed files as a project, one
   module per [modname] in first-seen order, so that a test can hand
   them to the producers that take a [Cfront.Project.parsed].  The
   type-scan hash and the content hashes stay empty: they only key
   cache artifacts, and no fixture runs under a store. *)
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
    hashes = [] }

(* The rule context of hand-parsed files, from the one producer. *)
let context_of_files files = Misra.Rule.build_context (parsed_of_files files)

(* Run [tus] from [entry] on the shipped coverage engine: compile them
   into one program (so each unit needs its own path), load it into a
   fresh environment and call the entry.  Returns the result and the
   environment, for the printed output and the step count. *)
let run_coverage ?hooks ?max_steps ?(entry = "main") tus =
  let env = Coverage.Runtime.create ?hooks ?max_steps () in
  (Coverage.Exec.run env (Coverage.Compile.compile tus) ~entry ~args:[], env)
