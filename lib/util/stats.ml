(** Small descriptive-statistics helpers used by metric reports and the
    benchmark harness. *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left Stdlib.min x xs
let maximum = function [] -> 0.0 | x :: xs -> List.fold_left Stdlib.max x xs

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var

(** [percentile p xs] with [p] in [0,100], nearest-rank on the sorted data. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
    List.nth sorted idx

let median xs = percentile 50.0 xs

let sum_int = List.fold_left ( + ) 0
let sum_float = List.fold_left ( +. ) 0.0

(** Histogram of integer data into inclusive [(lo, hi)] buckets; values
    outside every bucket are dropped. *)
let histogram ~buckets xs =
  List.map (fun (lo, hi) -> ((lo, hi), List.length (List.filter (fun x -> x >= lo && x <= hi) xs))) buckets

(** Geometric mean; all inputs must be positive. *)
let geomean = function
  | [] -> 0.0
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let clamp ~lo ~hi x = Stdlib.max lo (Stdlib.min hi x)
