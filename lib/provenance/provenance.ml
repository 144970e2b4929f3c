(** Structured provenance journal.  See provenance.mli. *)

type step = {
  w_label : string;
  w_loc : Cfront.Loc.t option;
  w_detail : string;
}

type finding = {
  f_id : string;
  f_kind : string;
  f_analysis : string;
  f_loc : Cfront.Loc.t option;
  f_message : string;
  f_witness : step list;
}

let step ?loc label fmt =
  Printf.ksprintf (fun detail -> { w_label = label; w_loc = loc; w_detail = detail }) fmt

(* ------------------------------------------------------------------ *)
(* Content-derived ids                                                 *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the canonical serialization of the finding.  64-bit, so
   collisions are vanishingly unlikely at journal scale (tens of
   thousands of findings); ids are stable across runs, jobs values and
   processes because they depend on nothing but the content.

   The serialization is
     kind \x00 analysis \x00 loc \x00 message
     { \x00 label \x01 loc \x01 detail }   (one group per witness step)
   where loc is [Loc.to_string] or "-" for none.  It is never built:
   each field is folded into the hash in place, in that order, so the
   hash is the same as over the concatenated string.  The accumulator
   is a local [Int64] ref inside one loop, which ocamlopt keeps
   unboxed; it is boxed once per field, not once per byte. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

let fnv_char h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let loc_key = function None -> "-" | Some l -> Cfront.Loc.to_string l

let content_hash ~kind ~analysis ~loc ~message ~witness =
  let h = fnv_char (fnv_string fnv_offset kind) '\x00' in
  let h = fnv_char (fnv_string h analysis) '\x00' in
  let h = fnv_string (fnv_char (fnv_string h (loc_key loc)) '\x00') message in
  List.fold_left
    (fun h s ->
      let h = fnv_char (fnv_string (fnv_char h '\x00') s.w_label) '\x01' in
      fnv_string (fnv_char (fnv_string h (loc_key s.w_loc)) '\x01') s.w_detail)
    h witness

let make ~kind ~analysis ?loc ~message ~witness () =
  { f_id = Printf.sprintf "F-%016Lx" (content_hash ~kind ~analysis ~loc ~message ~witness);
    f_kind = kind; f_analysis = analysis; f_loc = loc; f_message = message;
    f_witness = witness }

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let global_rev : finding list ref = ref []

(* Per-domain buffer, installed by [collect] around pool-worker task
   bodies so recording never contends on the global mutex and the
   orchestrator controls merge order (submission order), exactly like
   the telemetry counter buffers. *)
let local_buf : finding list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* A finding is counted once, where it reaches the process journal: a
   finding recorded into a buffer is counted when the orchestrator
   records it again, and a stored finding that a cache hit replays is
   counted like a computed one. *)
let record f =
  match Domain.DLS.get local_buf with
  | Some buf -> buf := f :: !buf
  | None ->
    if Telemetry.enabled () then Telemetry.incr ("provenance.findings." ^ f.f_kind);
    locked (fun () -> global_rev := f :: !global_rev)

let collect f =
  let prev = Domain.DLS.get local_buf in
  let buf = ref [] in
  Domain.DLS.set local_buf (Some buf);
  let finish () = Domain.DLS.set local_buf prev in
  match f () with
  | v ->
    finish ();
    (v, List.rev !buf)
  | exception e ->
    finish ();
    raise e

let reset () = locked (fun () -> global_rev := [])

(* Canonical journal order: content-sorted, deduplicated by id.  The
   sort key starts with the human-meaningful fields so the journal reads
   grouped by kind and analysis; the id tiebreak makes the order total.
   Dedup by id is sound because the id is derived from the full content:
   equal id means equal finding (hash collisions aside).

   Each finding's location string is built once, before the sort, and
   the keys are compared field by field with [String.compare] -- the
   order polymorphic [compare] gives on the (kind, analysis, loc,
   message, id) tuple.  The sort is stable, so among equal keys the
   first recorded finding survives the dedup. *)
type sort_key = { k_loc : string; k_finding : finding }

let compare_keys a b =
  let fa = a.k_finding and fb = b.k_finding in
  let c = String.compare fa.f_kind fb.f_kind in
  if c <> 0 then c
  else
    let c = String.compare fa.f_analysis fb.f_analysis in
    if c <> 0 then c
    else
      let c = String.compare a.k_loc b.k_loc in
      if c <> 0 then c
      else
        let c = String.compare fa.f_message fb.f_message in
        if c <> 0 then c else String.compare fa.f_id fb.f_id

let findings () =
  (* keyed in record order straight off the newest-first journal, with
     no reversed copy of it *)
  let all = locked (fun () -> !global_rev) in
  let keyed = List.rev_map (fun f -> { k_loc = loc_key f.f_loc; k_finding = f }) all in
  let sorted = List.stable_sort compare_keys keyed in
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun { k_finding = f; _ } ->
      if Hashtbl.mem seen f.f_id then None
      else begin
        Hashtbl.add seen f.f_id ();
        Some f
      end)
    sorted

let find id =
  let fs = findings () in
  match List.find_opt (fun f -> f.f_id = id) fs with
  | Some f -> Ok f
  | None ->
    if String.length id < 4 then
      Error (Printf.sprintf "unknown finding id %s (prefixes need >= 4 characters)" id)
    else begin
      let matches =
        List.filter
          (fun f ->
            String.length f.f_id >= String.length id
            && String.sub f.f_id 0 (String.length id) = id)
          fs
      in
      match matches with
      | [ f ] -> Ok f
      | [] -> Error (Printf.sprintf "unknown finding id %s" id)
      | _ :: _ ->
        Error
          (Printf.sprintf "ambiguous finding id prefix %s (%d matches)" id
             (List.length matches))
    end

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1                                                  *)
(* ------------------------------------------------------------------ *)

(* Fields are escaped straight into the line's buffer.  Runs of bytes
   that need no escape, nearly all of a journal, are copied whole: at
   full scale that takes a third off writing the 68 MB journal. *)
let add_escaped buf s =
  let start = ref 0 in
  let flush i = if i > !start then Buffer.add_substring buf s !start (i - !start) in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      flush i;
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c)
    end
  done;
  flush (String.length s)

let add_string_field buf name value =
  Buffer.add_char buf '"';
  Buffer.add_string buf name;
  Buffer.add_string buf "\":\"";
  add_escaped buf value;
  Buffer.add_char buf '"'

let add_loc_field buf = function
  | None -> Buffer.add_string buf "\"loc\":null"
  | Some l -> add_string_field buf "loc" (Cfront.Loc.to_string l)

(* One journal line, without its newline. *)
let add_finding_json buf f =
  Buffer.add_char buf '{';
  add_string_field buf "id" f.f_id;
  Buffer.add_char buf ',';
  add_string_field buf "kind" f.f_kind;
  Buffer.add_char buf ',';
  add_string_field buf "analysis" f.f_analysis;
  Buffer.add_char buf ',';
  add_loc_field buf f.f_loc;
  Buffer.add_char buf ',';
  add_string_field buf "message" f.f_message;
  Buffer.add_string buf ",\"witness\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      add_string_field buf "label" s.w_label;
      Buffer.add_char buf ',';
      add_loc_field buf s.w_loc;
      Buffer.add_char buf ',';
      add_string_field buf "detail" s.w_detail;
      Buffer.add_char buf '}')
    f.f_witness;
  Buffer.add_string buf "]}"

(* The journal line by line: [emit] receives the buffer holding each
   complete line, newline included, and the buffer is reused after. *)
let iter_journal emit =
  let fs = findings () in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"schema\":\"adcheck-evidence/1\",\"findings\":%d}\n" (List.length fs);
  emit buf;
  List.iter
    (fun f ->
      Buffer.clear buf;
      add_finding_json buf f;
      Buffer.add_char buf '\n';
      emit buf)
    fs

let journal () =
  let out = Buffer.create 4096 in
  iter_journal (Buffer.add_buffer out);
  Buffer.contents out

let write_journal ~path () =
  let oc = open_out path in
  match iter_journal (Buffer.output_buffer oc) with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e

(* ------------------------------------------------------------------ *)
(* Human-readable why-chains                                           *)
(* ------------------------------------------------------------------ *)

let excerpt ~source (l : Cfront.Loc.t) =
  match source l.Cfront.Loc.file with
  | None -> None
  | Some content ->
    let lines = String.split_on_char '\n' content in
    let line = l.Cfront.Loc.line in
    (* one line of context before, the line itself, a caret column *)
    let rec nth i = function
      | [] -> None
      | x :: _ when i = 0 -> Some x
      | _ :: tl -> nth (i - 1) tl
    in
    (match nth (line - 1) lines with
     | None -> None
     | Some this ->
       let buf = Buffer.create 128 in
       (match nth (line - 2) lines with
        | Some prev when line > 1 ->
          Buffer.add_string buf (Printf.sprintf "      %4d | %s\n" (line - 1) prev)
        | _ -> ());
       Buffer.add_string buf (Printf.sprintf "      %4d | %s\n" line this);
       if l.Cfront.Loc.col > 0 then
         Buffer.add_string buf
           (Printf.sprintf "           | %s^\n" (String.make (l.Cfront.Loc.col - 1) ' '));
       Some (Buffer.contents buf))

let explain ?(source = fun _ -> None) f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "finding %s\n  kind:     %s\n  analysis: %s\n" f.f_id
       f.f_kind f.f_analysis);
  (match f.f_loc with
   | Some l -> Buffer.add_string buf (Printf.sprintf "  location: %s\n" (Cfront.Loc.to_string l))
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "  message:  %s\n" f.f_message);
  Buffer.add_string buf "  witness chain:\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "    %2d. [%s] %s%s\n" (i + 1) s.w_label s.w_detail
           (match s.w_loc with
            | Some l -> " @ " ^ Cfront.Loc.to_string l
            | None -> ""));
      match s.w_loc with
      | Some l -> Option.iter (Buffer.add_string buf) (excerpt ~source l)
      | None -> ())
    f.f_witness;
  Buffer.contents buf
