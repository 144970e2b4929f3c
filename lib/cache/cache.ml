(** Persistent content-addressed artifact store — see cache.mli for the
    exactness contract.  Implementation notes:

    - One artifact per file, [<kind>-<key>.art], written atomically
      (temp + rename) so a killed process never leaves a half artifact
      under a valid name.
    - Every read re-validates the whole header (magic, salt, kind, key,
      length, payload digest, owner syntax) before [Marshal.from_bytes]
      runs, so flipped bits surface as a counted corrupt entry rather
      than a wrong-typed value handed to the analyzer.
    - A read fills a buffer owned by the reading domain, so a hit
      leaves no copy of the file behind as garbage; only the bytes that
      read returned are ever examined, never a stale tail of the
      buffer.
    - Counters are atomics: lookups may come from any worker domain
      (parse fan-out, pipelined audit phases).  Telemetry counters
      [cache.hit/miss/store/corrupt/evict] mirror them in the work
      tier — deterministic for a deterministic workload.
    - Temp files carry the process id and a per-process sequence, so
      two processes sharing one store never write the same temp file. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a of [b.[pos .. pos+len-1]], so an artifact's payload is hashed
   in place rather than copied out of the read buffer first. *)
let fnv1a64_sub b pos len =
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
    h := Int64.mul !h fnv_prime
  done;
  Printf.sprintf "%016Lx" !h

let fnv1a64 s = fnv1a64_sub (Bytes.unsafe_of_string s) 0 (String.length s)

let magic = "adcheck-cache/1"

(* Bump on any change to the marshaled layout of a cached artifact
   (AST, dataflow facts, MISRA findings, bytecode, coverage outcomes). *)
let version_salt = "adcheck-cache/1 schema=8"

type t = {
  cache_dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  corrupt : int Atomic.t;
  invalidated : int Atomic.t;
  tmp_seq : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  invalidated : int;
}

let dir t = t.cache_dir

let stats (t : t) : stats =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    corrupt = Atomic.get t.corrupt;
    invalidated = Atomic.get t.invalidated;
  }

let art_suffix = ".art"
let is_artifact name = Filename.check_suffix name art_suffix

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.is_directory d -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A writer's temp file, [<artifact>.tmp.<pid>.<seq>]; one that is still
   present was left by a killed writer. *)
let is_temp name = Util.Strutil.contains_sub ~sub:(art_suffix ^ ".tmp.") name

(* Wipe every artifact and stray temp file (schema change), resetting
   the store to empty-but-valid. *)
let wipe_artifacts dirname =
  Array.iter
    (fun name ->
      if is_artifact name || is_temp name then
        try Sys.remove (Filename.concat dirname name) with Sys_error _ -> ())
    (Sys.readdir dirname)

let open_dir dirname =
  mkdir_p dirname;
  if not (Sys.is_directory dirname) then
    raise (Sys_error (dirname ^ ": not a directory"));
  let version_file = Filename.concat dirname "VERSION" in
  (if Sys.file_exists version_file then begin
     let prior = try String.trim (read_file version_file) with Sys_error _ -> "" in
     if prior <> version_salt then begin
       Util.Log.info
         "cache %s: version salt mismatch (%S, want %S); wiping artifacts"
         dirname prior version_salt;
       wipe_artifacts dirname;
       write_file version_file (version_salt ^ "\n")
     end
   end
   else write_file version_file (version_salt ^ "\n"));
  {
    cache_dir = dirname;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    corrupt = Atomic.make 0;
    invalidated = Atomic.make 0;
    tmp_seq = Atomic.make 0;
  }

let key ~kind parts =
  fnv1a64 (String.concat "\x00" (version_salt :: kind :: parts))

let art_path t ~kind ~key = Filename.concat t.cache_dir (kind ^ "-" ^ key ^ art_suffix)

(* Artifact layout:
     adcheck-cache/1\n
     <version salt>\n
     <kind> <key> <payload length> <payload digest> <owner>\n
     <payload bytes>
   The owner field runs to end of line (paths may contain spaces);
   "-" means no owner. *)
let render_artifact ~kind ~key ~owner payload =
  Printf.sprintf "%s\n%s\n%s %s %d %s %s\n%s" magic version_salt kind key
    (String.length payload) (fnv1a64 payload)
    (if owner = "" then "-" else owner)
    payload

(* Parse and validate the [len] bytes at the start of [raw]; [Ok
   offset] of the payload, [Error reason] on any mismatch.  Bytes of
   [raw] past [len] are never read. *)
let parse_artifact ~kind ~key raw len =
  let line_end from =
    let rec go i =
      if i >= len then Error "truncated header"
      else if Bytes.get raw i = '\n' then Ok i
      else go (i + 1)
    in
    go from
  in
  let ( let* ) = Result.bind in
  let* e1 = line_end 0 in
  let* e2 = line_end (e1 + 1) in
  let* e3 = line_end (e2 + 1) in
  let l1 = Bytes.sub_string raw 0 e1 in
  let l2 = Bytes.sub_string raw (e1 + 1) (e2 - e1 - 1) in
  let l3 = Bytes.sub_string raw (e2 + 1) (e3 - e2 - 1) in
  if l1 <> magic then Error "bad magic"
  else if l2 <> version_salt then Error "version salt mismatch"
  else
    match String.split_on_char ' ' l3 with
    | k :: ky :: size :: digest :: _owner_words ->
      if k <> kind then Error "kind mismatch"
      else if ky <> key then Error "key mismatch"
      else begin
        match int_of_string_opt size with
        | None -> Error "bad payload length"
        | Some n ->
          let payload_start = e3 + 1 in
          if len - payload_start <> n then Error "payload length mismatch"
          else if fnv1a64_sub raw payload_start n <> digest then
            Error "payload digest mismatch"
          else Ok payload_start
      end
    | _ -> Error "bad header line"

(* Each domain reads artifacts into its own buffer, grown to the largest
   artifact it has read, so a hit allocates no copy of the file. *)
let read_buffer = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

(* The whole file at [path] into the domain's buffer; returns the buffer
   and the number of bytes read. *)
let read_artifact path =
  let buf = Domain.DLS.get read_buffer in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if Bytes.length !buf < len then buf := Bytes.create len;
      really_input ic !buf 0 len;
      (!buf, len))

(* Owner of an artifact file, reading only the header; None when the
   header itself is unreadable. *)
let owner_of_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let _magic = input_line ic in
        let _salt = input_line ic in
        let header = input_line ic in
        match String.split_on_char ' ' header with
        | _kind :: _key :: _len :: _digest :: rest when rest <> [] ->
          let owner = String.concat " " rest in
          if owner = "-" then None else Some owner
        | _ -> None)
  with Sys_error _ | End_of_file -> None

let find (t : t) ~kind ~key =
  let path = art_path t ~kind ~key in
  if not (Sys.file_exists path) then begin
    Atomic.incr t.misses;
    Telemetry.incr "cache.miss";
    None
  end
  else begin
    let validated =
      match read_artifact path with
      | exception (Sys_error e) -> Error e
      | exception End_of_file -> Error "file shrank while read"
      | raw, len -> (
        match parse_artifact ~kind ~key raw len with
        | Ok payload_start ->
          (* the digest matched, so from_bytes sees exactly the bytes
             to_string produced — but guard anyway: a schema change that
             escaped the salt bump must degrade to a miss, not an abort *)
          (try
             if Marshal.total_size raw payload_start <> len - payload_start
             then Error "marshaled size mismatch"
             else Ok (Marshal.from_bytes raw payload_start)
           with _ -> Error "unmarshal failure")
        | Error _ as e -> e)
    in
    match validated with
    | Ok v ->
      Atomic.incr t.hits;
      Telemetry.incr "cache.hit";
      Some v
    | Error reason ->
      Util.Log.warn "cache %s: corrupt artifact %s (%s); recomputing"
        t.cache_dir (Filename.basename path) reason;
      Atomic.incr t.corrupt;
      Telemetry.incr "cache.corrupt";
      (try Sys.remove path with Sys_error _ -> ());
      Atomic.incr t.misses;
      Telemetry.incr "cache.miss";
      None
  end

let store (t : t) ?(owner = "") ~kind ~key v =
  match Marshal.to_string v [] with
  | exception Invalid_argument e ->
    (* abstract/closure value slipped into an artifact type: skip, the
       cache must never fail the computation it memoizes *)
    Util.Log.warn "cache %s: cannot serialize %s artifact (%s); skipping"
      t.cache_dir kind e
  | payload ->
    let path = art_path t ~kind ~key in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add t.tmp_seq 1)
    in
    (try
       write_file tmp (render_artifact ~kind ~key ~owner payload);
       Sys.rename tmp path;
       Atomic.incr t.stores;
       Telemetry.incr "cache.store"
     with Sys_error e ->
       Util.Log.warn "cache %s: cannot write %s artifact: %s" t.cache_dir kind e;
       (try Sys.remove tmp with Sys_error _ -> ()))

let memo t ~kind ~key f =
  match find t ~kind ~key with
  | Some v -> v
  | None ->
    let v = f () in
    store t ~kind ~key v;
    v

let remove_owned (t : t) paths =
  let removed = ref 0 in
  Array.iter
    (fun name ->
      if is_artifact name then begin
        let path = Filename.concat t.cache_dir name in
        match owner_of_file path with
        | Some owner when List.mem owner paths ->
          (try
             Sys.remove path;
             incr removed
           with Sys_error _ -> ())
        | _ -> ()
      end)
    (Sys.readdir t.cache_dir);
  ignore (Atomic.fetch_and_add t.invalidated !removed);
  Telemetry.add "cache.evict" !removed;
  !removed

(* The path list is sorted, so equal trees give equal lists and an
   unchanged tree writes nothing. *)
let sweep t ~name paths =
  let key = key ~kind:"manifest" [ name ] in
  let paths = List.sort_uniq compare paths in
  let previous : string list option = find t ~kind:"manifest" ~key in
  if previous <> Some paths then begin
    let gone =
      List.filter (fun p -> not (List.mem p paths)) (Option.value ~default:[] previous)
    in
    if gone <> [] then ignore (remove_owned t gone);
    store t ~kind:"manifest" ~key paths
  end

(* ------------------------------------------------------------------ *)
(* Process-global store                                                 *)
(* ------------------------------------------------------------------ *)

let global_store : t option Atomic.t = Atomic.make None
let set_global c = Atomic.set global_store c
let global () = Atomic.get global_store

let with_global c f =
  set_global (Some c);
  Fun.protect ~finally:(fun () -> set_global None) f
