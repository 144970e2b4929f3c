(* The host-speed probe.  On a machine shared with other tenants, the
   speed of OCaml code drifts by a third or more over minutes, and a
   20-second run lands wholly in a fast or a slow period.  The probe is
   a fixed piece of allocation-heavy OCaml work (hash table inserts,
   string building, a list sort) that slows down with the audit in those
   periods, so a request's time divided by the probe time measured next
   to it repeats from run to run where the raw time does not.

   The probe runs in a child forked before the workload's set-up, so its
   heap never holds the program's data and the program under test cannot
   change how long it takes.  The parent sends one byte per probe and
   waits for the reply: the two processes never run at the same time. *)

let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 49_999 do
    Hashtbl.replace h (i * 7919 mod 1_000_003) (string_of_int i)
  done;
  List.length (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))

type t = { pid : int; requests : Unix.file_descr; replies : Unix.file_descr }

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    let b = Bytes.create 1 in
    let rec serve () =
      if Unix.read req_r b 0 1 = 1 then begin
        ignore (Sys.opaque_identity (work ()));
        ignore (Unix.write rep_w b 0 1);
        serve ()
      end
    in
    (try serve () with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    { pid; requests = req_w; replies = rep_r }

(* Wall time of one probe, seen from the parent. *)
let time t =
  let b = Bytes.make 1 'p' in
  let t0 = Unix.gettimeofday () in
  if Unix.write t.requests b 0 1 <> 1 || Unix.read t.replies b 0 1 <> 1 then
    failwith "the probe process died";
  Unix.gettimeofday () -. t0

(* Mean time of one probe, probing for at least [span] seconds: a long
   request gets a long look at the machine on either side of it. *)
let mean t ~span =
  let rec go n total =
    if n > 0 && total >= span then total /. float_of_int n else go (n + 1) (total +. time t)
  in
  go 0 0.0

let stop t =
  Unix.close t.requests;
  Unix.close t.replies;
  ignore (Unix.waitpid [] t.pid)
