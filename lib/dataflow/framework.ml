(** Generic worklist fixpoint solver over a join-semilattice.

    Clients supply the lattice and a per-block transfer function; the
    solver iterates to the least fixpoint in either direction.  Facts are
    reported in execution order: [before.(b)] holds at the first
    instruction of block [b] and [after.(b)] past its last, regardless of
    direction. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** least element; also the initial value of every non-boundary block *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

type direction = Forward | Backward

module Make (L : LATTICE) = struct
  type result = { before : L.t array; after : L.t array }

  (** [solve ~cfg ~direction ~boundary ~transfer] computes the fixpoint.

      [boundary] is the fact at the entry block (forward) or the exit
      block (backward).  [transfer b fact] maps the fact across block [b]
      in execution order for [Forward] and against it for [Backward]. *)
  let solve ~(cfg : Cfg.t) ~direction ~(boundary : L.t)
      ~(transfer : int -> L.t -> L.t) =
    let n = Cfg.n_blocks cfg in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    (* predecessors in iteration order *)
    let sources =
      match direction with
      | Forward -> Array.map (fun blk -> blk.Cfg.preds) cfg.Cfg.blocks
      | Backward ->
        Array.map (fun blk -> List.map fst blk.Cfg.succs) cfg.Cfg.blocks
    in
    let boundary_block =
      match direction with Forward -> cfg.Cfg.entry | Backward -> cfg.Cfg.exit_
    in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let enqueue id =
      if not queued.(id) then begin
        queued.(id) <- true;
        Queue.add id queue
      end
    in
    for id = 0 to n - 1 do enqueue id done;
    let transfers = ref 0 in
    let join_output acc src = L.join acc output.(src) in
    while not (Queue.is_empty queue) do
      let id = Queue.take queue in
      queued.(id) <- false;
      Stdlib.incr transfers;
      let in_fact =
        List.fold_left join_output
          (if id = boundary_block then boundary else L.bottom)
          sources.(id)
      in
      input.(id) <- in_fact;
      let out_fact = transfer id in_fact in
      if not (L.equal out_fact output.(id)) then begin
        output.(id) <- out_fact;
        match direction with
        | Forward ->
          List.iter (fun (dst, _) -> enqueue dst) cfg.Cfg.blocks.(id).Cfg.succs
        | Backward -> List.iter enqueue cfg.Cfg.blocks.(id).Cfg.preds
      end
    done;
    Telemetry.incr "dataflow.solves";
    Telemetry.add "dataflow.transfers" !transfers;
    Telemetry.max_gauge "dataflow.max_transfers_per_solve" (float_of_int !transfers);
    match direction with
    | Forward -> { before = input; after = output }
    | Backward -> { before = output; after = input }

  (** Like {!solve} but also returns the number of worklist steps taken —
    used by tests to check convergence behaviour on loops. *)
  let solve_counted ~cfg ~direction ~boundary ~transfer =
    let steps = ref 0 in
    let transfer id fact = incr steps; transfer id fact in
    let r = solve ~cfg ~direction ~boundary ~transfer in
    (r, !steps)
end
