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

(* The process journal: [!sink.(0)] to [!sink.(!sink_len - 1)], in
   record order until an export puts them in export order.  The array
   grows by doubling.  [canonical] holds while the live prefix is in
   export order and nothing was recorded since, so a second export
   sorts nothing. *)
let sink : finding array ref = ref [||]
let sink_len = ref 0
let canonical = ref true

(* Per-domain buffer, installed by [collect] around pool-worker task
   bodies so recording never contends on the global mutex and the
   orchestrator controls merge order (submission order), exactly like
   the telemetry counter buffers. *)
let local_buf : finding list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let push f =
  let n = !sink_len in
  if n = Array.length !sink then begin
    (* the new finding fills the spare slots: no dummy finding needed *)
    let grown = Array.make (max 1024 (2 * n)) f in
    Array.blit !sink 0 grown 0 n;
    sink := grown
  end;
  !sink.(n) <- f;
  sink_len := n + 1;
  canonical := false

(* A finding is counted once, where it reaches the process journal: a
   finding recorded into a buffer is counted when the orchestrator
   records it again, and a stored finding that a cache hit replays is
   counted like a computed one. *)
let record f =
  match Domain.DLS.get local_buf with
  | Some buf -> buf := f :: !buf
  | None ->
    if Telemetry.enabled () then Telemetry.incr ("provenance.findings." ^ f.f_kind);
    locked (fun () -> push f)

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

let reset () =
  locked (fun () ->
      sink := [||];
      sink_len := 0;
      canonical := true)

(* ------------------------------------------------------------------ *)
(* Canonical order                                                     *)
(* ------------------------------------------------------------------ *)

(* The export order is (kind, analysis, location, message, id), each
   field compared with [String.compare], a location as its
   [Loc.to_string] ("-" for none).  No location string is built: the
   comparators below give the order of those strings from the fields.
   Top-level functions only, so a comparison allocates nothing. *)

let rec decimal_digits n d = if n < 10 then d else decimal_digits (n / 10) (d + 1)
let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1)

(* The order of [string_of_int x ^ t] and [string_of_int y ^ t] for
   x, y >= 0, where the terminator t is ":" after a line ([~colon]) and
   the end of the string after a column.  Digit strings of one length
   order as numbers.  Otherwise the longer one's prefix of the shorter
   one's length decides, and if that ties, the terminator meets the
   longer one's next digit: ':' sorts after every digit, the end of the
   string before every byte.  So line 10 sorts before line 1, and
   column 1 before column 10. *)
let compare_decimal ~colon x y =
  let dx = decimal_digits x 1 and dy = decimal_digits y 1 in
  if dx = dy then Int.compare x y
  else if dx < dy then
    let c = Int.compare x (y / pow10 (dy - dx)) in
    if c <> 0 then c else if colon then 1 else -1
  else
    let c = Int.compare (x / pow10 (dx - dy)) y in
    if c <> 0 then c else if colon then -1 else 1

let rec common_prefix a b n i =
  if i < n && String.unsafe_get a i = String.unsafe_get b i then common_prefix a b n (i + 1)
  else i

let compare_loc (a : Cfront.Loc.t) (b : Cfront.Loc.t) =
  let open Cfront.Loc in
  if a.line < 0 || a.col < 0 || b.line < 0 || b.col < 0 then
    (* a '-' sign: never in a parsed location, so not worth a fast path *)
    String.compare (to_string a) (to_string b)
  else
    let fa = a.file and fb = b.file in
    let la = String.length fa and lb = String.length fb in
    let i = if fa == fb then la else common_prefix fa fb (min la lb) 0 in
    if i < la && i < lb then Char.compare fa.[i] fb.[i]
    else if la = lb then
      let c = compare_decimal ~colon:true a.line b.line in
      if c <> 0 then c else compare_decimal ~colon:false a.col b.col
    else
      (* one name is a prefix of the other: the shorter string goes on
         with the ':' before its line, the longer with its next byte *)
      let next = if la < lb then fb.[la] else fa.[lb] in
      if next = ':' then String.compare (to_string a) (to_string b)
      else if la < lb then Char.compare ':' next
      else Char.compare next ':'

(* [String.compare "-" (Loc.to_string l)]: the string starts with the
   file name, or with ':' when that is empty, and is longer than "-". *)
let compare_dash (l : Cfront.Loc.t) =
  let file = l.Cfront.Loc.file in
  if file = "" then Char.compare '-' ':'
  else
    let c = Char.compare '-' file.[0] in
    if c <> 0 then c else -1

let compare_loc_opt a b =
  match (a, b) with
  | None, None -> 0
  | Some a, Some b -> compare_loc a b
  | None, Some b -> compare_dash b
  | Some a, None -> -compare_dash a

let compare_findings a b =
  let c = String.compare a.f_kind b.f_kind in
  if c <> 0 then c
  else
    let c = String.compare a.f_analysis b.f_analysis in
    if c <> 0 then c
    else
      let c = compare_loc_opt a.f_loc b.f_loc in
      if c <> 0 then c
      else
        let c = String.compare a.f_message b.f_message in
        if c <> 0 then c else String.compare a.f_id b.f_id

(* Keep the first of each run of equal ids in [a.(0)] to [a.(n - 1)],
   packed to the front; returns how many are kept.  Equal ids mean
   equal content, hence equal sort keys, so they sort next to each
   other (a 64-bit hash collision between different contents aside). *)
let dedup_adjacent a n =
  if n = 0 then 0
  else begin
    let kept = ref 1 in
    for i = 1 to n - 1 do
      let f = a.(i) in
      if not (String.equal f.f_id a.(!kept - 1).f_id) then begin
        a.(!kept) <- f;
        incr kept
      end
    done;
    !kept
  end

(* The journal in export order, as the sink and its live length.  The
   first export after a record sorts a copy of the live prefix, stably,
   so the first recorded of equal findings comes first and survives the
   dedup, then makes the copy the sink.  Sorting a copy means an array
   returned earlier never changes below its length: later records only
   append past it. *)
let canonical_sink () =
  locked (fun () ->
      if not !canonical then begin
        let a = Array.sub !sink 0 !sink_len in
        Array.stable_sort compare_findings a;
        sink_len := dedup_adjacent a (Array.length a);
        sink := a;
        canonical := true
      end;
      (!sink, !sink_len))

let findings () =
  let a, n = canonical_sink () in
  let rec to_list i acc = if i < 0 then acc else to_list (i - 1) (a.(i) :: acc) in
  to_list (n - 1) []

let find id =
  let a, n = canonical_sink () in
  let rec prefixed i acc =
    if i < 0 then acc
    else prefixed (i - 1) (if String.starts_with ~prefix:id a.(i).f_id then a.(i) :: acc else acc)
  in
  let matches = prefixed (n - 1) [] in
  match List.find_opt (fun f -> f.f_id = id) matches with
  | Some f -> Ok f
  | None ->
    if String.length id < 4 then
      Error (Printf.sprintf "unknown finding id %s (prefixes need >= 4 characters)" id)
    else begin
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
  let a, n = canonical_sink () in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"schema\":\"adcheck-evidence/1\",\"findings\":%d}\n" n;
  emit buf;
  for i = 0 to n - 1 do
    Buffer.clear buf;
    add_finding_json buf a.(i);
    Buffer.add_char buf '\n';
    emit buf
  done

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
