(** Immutable dense bitsets over small integer domains — the lattice
    every dataflow fixpoint in the repository solves over.  A set is an
    [int array] of [Sys.int_size]-bit words; words past the end of the
    array are zero, so [empty] ([[||]]) is the bottom of every domain
    and sets of different lengths still compare and combine exactly.
    No operation mutates its arguments. *)

type t = int array

let bits = Sys.int_size
let empty : t = [||]

let word s w = if w < Array.length s then Array.unsafe_get s w else 0

let mem s i =
  let w = i / bits in
  w < Array.length s && s.(w) land (1 lsl (i mod bits)) <> 0

let of_list l =
  match l with
  | [] -> empty
  | _ ->
    let n = 1 + List.fold_left Stdlib.max 0 l in
    let a = Array.make ((n + bits - 1) / bits) 0 in
    List.iter
      (fun i ->
        let w = i / bits in
        a.(w) <- a.(w) lor (1 lsl (i mod bits)))
      l;
    a

(* The operations below return an argument itself when the result
   equals it, so a fixpoint that has converged allocates nothing and
   [equal] mostly answers on physical equality. *)

let equal a b =
  a == b
  ||
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let rec go w = w >= n || (word a w = word b w && go (w + 1)) in
  go 0

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || a == b then b
  else if lb = 0 then a
  else if la = 1 && lb = 1 then begin
    let w = a.(0) lor b.(0) in
    if w = a.(0) then a else if w = b.(0) then b else [| w |]
  end
  else Array.init (Stdlib.max la lb) (fun w -> word a w lor word b w)

(* [(x \ kill) ∪ gen], the gen/kill transfer, in one pass. *)
let apply x ~kill ~gen =
  let lx = Array.length x and lg = Array.length gen in
  if Array.length kill = 0 && lg = 0 then x
  else if lx <= 1 && lg <= 1 then begin
    let x0 = word x 0 in
    let w = x0 land lnot (word kill 0) lor word gen 0 in
    if w = x0 then x else [| w |]
  end
  else
    Array.init (Stdlib.max lx lg) (fun w ->
        word x w land lnot (word kill w) lor word gen w)

(* Framework.LATTICE *)
let bottom = empty
let join = union
