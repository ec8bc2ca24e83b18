(* Shared enumeration core: folds [f acc ~cut ~size ~vol] over every
   non-empty proper subset, as a bitmask over the live slots of the
   store's view (bit b is the b-th live slot). Which node owns which
   bit cannot change a minimum over all subsets. Cut sizes are computed
   per mask from an array of bit pairs, one per edge; volumes from a
   degree array. *)
let enumerate g f init =
  let v = Graph.view g in
  let n = v.Graph.v_nodes in
  let bit = Array.make v.Graph.v_used 0 and deg = Array.make n 0 in
  let b = ref 0 in
  for s = 0 to v.Graph.v_used - 1 do
    if v.Graph.v_ids.(s) >= 0 then begin
      bit.(s) <- !b;
      deg.(!b) <- v.Graph.v_deg.(s);
      incr b
    end
  done;
  let edges = ref [] in
  for s = 0 to v.Graph.v_used - 1 do
    for k = 0 to v.Graph.v_deg.(s) - 1 do
      let w = v.Graph.v_adj.(s).(k) in
      if bit.(s) < bit.(w) then edges := (bit.(s), bit.(w)) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  let acc = ref init in
  for mask = 1 to (1 lsl n) - 2 do
    let size = ref 0 and vol = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        incr size;
        vol := !vol + deg.(i)
      end
    done;
    let cut = ref 0 in
    Array.iter
      (fun (i, j) ->
        if mask land (1 lsl i) <> 0 <> (mask land (1 lsl j) <> 0) then incr cut)
      edges;
    acc := f !acc ~cut:!cut ~size:!size ~vol:!vol
  done;
  !acc

(* 2^22 subsets is about the most one enumeration can afford. *)
let max_nodes = 22

let check_small g name =
  let n = Graph.num_nodes g in
  if n > max_nodes then
    invalid_arg (Printf.sprintf "Cuts.%s: graph has %d nodes (> %d)" name n max_nodes)

let exact_expansion g =
  check_small g "exact_expansion";
  let n = Graph.num_nodes g in
  if n < 2 then infinity
  else
    enumerate g
      (fun acc ~cut ~size ~vol:_ ->
        if 2 * size <= n then min acc (float_of_int cut /. float_of_int size) else acc)
      infinity

let exact_conductance g =
  check_small g "exact_conductance";
  let n = Graph.num_nodes g in
  if n < 2 then infinity
  else
    let total_vol = 2 * Graph.num_edges g in
    enumerate g
      (fun acc ~cut ~size:_ ~vol ->
        let denom = min vol (total_vol - vol) in
        (* A zero-volume side implies a zero cut: a free cut, i.e. the
           graph is disconnected and its conductance is 0 (matching the
           normalized Laplacian's second zero eigenvalue). *)
        if denom > 0 then min acc (float_of_int cut /. float_of_int denom) else min acc 0.0)
      infinity

(* Sweep machinery over the store's view: the live slots sorted by
   score (each node scored once, up front, so the comparator reads an
   array; ties break by id); maintain the running cut value as nodes
   cross into S: adding u changes the cut by deg(u) minus twice its
   already-inside neighbours. Membership is a slot-indexed bool array
   and neighbour counts are run scans — no hashing on the hot path. The
   prefix handed to [f] is the node-id array in sweep order. *)
let sweep g ~scores f init =
  let v = Graph.view g in
  let n = v.Graph.v_nodes in
  if n < 2 then init
  else begin
    let ids = v.Graph.v_ids in
    let order = Array.make n 0 and score = Array.make v.Graph.v_used 0.0 in
    let k = ref 0 in
    for s = 0 to v.Graph.v_used - 1 do
      if ids.(s) >= 0 then begin
        order.(!k) <- s;
        score.(s) <- scores ids.(s);
        incr k
      end
    done;
    Array.sort
      (fun s t ->
        let c = Float.compare score.(s) score.(t) in
        if c <> 0 then c else Int.compare ids.(s) ids.(t))
      order;
    let prefix = Array.map (fun s -> ids.(s)) order in
    let inside = Array.make v.Graph.v_used false in
    let cut = ref 0 and vol = ref 0 in
    let acc = ref init in
    for k = 0 to n - 2 do
      let s = order.(k) in
      let d = v.Graph.v_deg.(s) and run = v.Graph.v_adj.(s) in
      let inside_nbrs = ref 0 in
      for j = 0 to d - 1 do
        if inside.(run.(j)) then incr inside_nbrs
      done;
      cut := !cut + d - (2 * !inside_nbrs);
      vol := !vol + d;
      inside.(s) <- true;
      acc := f !acc ~cut:!cut ~size:(k + 1) ~vol:!vol ~prefix:(prefix, k + 1)
    done;
    !acc
  end

let sweep_expansion g ~scores =
  let n = Graph.num_nodes g in
  if n < 2 then infinity
  else
    sweep g ~scores
      (fun acc ~cut ~size ~vol:_ ~prefix:_ ->
        let side = min size (n - size) in
        min acc (float_of_int cut /. float_of_int side))
      infinity

let sweep_conductance g ~scores =
  let total_vol = 2 * Graph.num_edges g in
  if Graph.num_nodes g < 2 || total_vol = 0 then infinity
  else
    sweep g ~scores
      (fun acc ~cut ~size:_ ~vol ~prefix:_ ->
        let denom = min vol (total_vol - vol) in
        if denom > 0 then min acc (float_of_int cut /. float_of_int denom) else min acc 0.0)
      infinity

(* Slot-space sweep kernel for the online monitor: a BFS over the
   store's runs ({!Graph.view}) with the BFS-order sweep fused in. The
   prefix cut grows by one node per dequeue, in visit order; a
   neighbour is inside the prefix when its visit index is below the
   dequeued node's, so the visit indices double as the membership set
   and the sweep needs no second pass and no order array. Same
   incremental cut maintenance as [sweep]; like the score sweeps the
   minima are upper bounds on the true optima. *)

type bfs_sweep = { reached : int; expansion : float; conductance : float }

(* xlint: hot *)
let slot_bfs_sweep (v : Graph.view) ~visit ~queue ~conductance src =
  let n = v.Graph.v_nodes and total_vol = 2 * v.Graph.v_edges in
  visit.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let cut = ref 0 and vol = ref 0 and inside_nbrs = ref 0 in
  let best_h = ref infinity and best_phi = ref infinity in
  while !head < !tail do
    let k = !head in
    let u = queue.(k) in
    incr head;
    let d = v.Graph.v_deg.(u) and run = v.Graph.v_adj.(u) in
    inside_nbrs := 0;
    for j = 0 to d - 1 do
      let w = run.(j) in
      if visit.(w) < 0 then begin
        visit.(w) <- !tail;
        queue.(!tail) <- w;
        incr tail
      end
      else if visit.(w) < k then incr inside_nbrs
    done;
    (* The full-set prefix is no cut. *)
    if k + 1 < n then begin
      cut := !cut + d - (2 * !inside_nbrs);
      vol := !vol + d;
      let size = k + 1 in
      let side = if size < n - size then size else n - size in
      let h = float_of_int !cut /. float_of_int side in
      if h < !best_h then best_h := h;
      if conductance then begin
        let denom = if !vol < total_vol - !vol then !vol else total_vol - !vol in
        let phi = if denom > 0 then float_of_int !cut /. float_of_int denom else 0.0 in
        if phi < !best_phi then best_phi := phi
      end
    end
  done;
  for k = 0 to !tail - 1 do
    visit.(queue.(k)) <- -1
  done;
  (* An edgeless graph has no conductance to estimate. *)
  {
    reached = !tail;
    expansion = !best_h;
    conductance = (if total_vol = 0 then infinity else !best_phi);
  }

let sweep_best_cut g ~scores =
  let n = Graph.num_nodes g in
  if n < 2 then ([], infinity)
  else
    let best, witness =
      sweep g ~scores
        (fun ((b, _) as acc) ~cut ~size ~vol:_ ~prefix:(ns, k) ->
          let side = min size (n - size) in
          let h = float_of_int cut /. float_of_int side in
          if h < b then (h, Some (Array.sub ns 0 k)) else acc)
        (infinity, None)
    in
    match witness with
    | None -> ([], best)
    | Some a -> (List.sort Int.compare (Array.to_list a), best)
