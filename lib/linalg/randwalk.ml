module G = Xheal_graph.Graph

(* The graph in id order, read in place: [order.(i)] is the slot of
   the node of rank [i] and [rank.(s)] the rank of slot [s]. *)
type walk = { v : G.view; order : int array; rank : int array }

let walk g =
  let v = G.view g in
  let order = Array.make v.G.v_nodes 0 and rank = Array.make v.G.v_used 0 in
  G.slots_by_id g ~order ~tmp:rank ~counts:(Array.make 256 0);
  Array.iteri (fun i s -> rank.(s) <- i) order;
  { v; order; rank }

let stationary_of w =
  let n = Array.length w.order in
  let total = float_of_int (2 * w.v.G.v_edges) in
  Vec.init n (fun i ->
      if total = 0.0 then 1.0 /. float_of_int (max 1 n)
      else float_of_int w.v.G.v_deg.(w.order.(i)) /. total)

let step w x =
  let n = Array.length w.order in
  let y = Vec.create n in
  for i = 0 to n - 1 do
    let s = w.order.(i) in
    let d = w.v.G.v_deg.(s) in
    if d = 0 then y.(i) <- y.(i) +. x.(i)
    else begin
      y.(i) <- y.(i) +. (0.5 *. x.(i));
      let share = 0.5 *. x.(i) /. float_of_int d and run = w.v.G.v_adj.(s) in
      for k = 0 to d - 1 do
        let j = w.rank.(run.(k)) in
        y.(j) <- y.(j) +. share
      done
    end
  done;
  y

let stationary g = stationary_of (walk g)

let step_distribution g x = step (walk g) x

let tv_distance p q =
  if Vec.dim p <> Vec.dim q then invalid_arg "Randwalk.tv_distance: dimension mismatch";
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. Float.abs (v -. q.(i))) p;
  0.5 *. !s

let mixing_time ?(eps = 0.25) ?max_steps ?starts g =
  let n = G.num_nodes g in
  if n = 0 then Some 0
  else begin
    let w = walk g in
    let pi = stationary_of w in
    let max_steps = match max_steps with Some m -> m | None -> max 16 (10 * n * n) in
    let starts =
      match starts with
      | Some s -> s
      | None ->
        let ns = G.nodes g in
        if n <= 64 then ns else List.filteri (fun i _ -> i < 8) ns
    in
    let start u =
      if not (G.has_node g u) then
        invalid_arg (Printf.sprintf "Randwalk.mixing_time: start %d is not a node" u);
      Vec.basis n w.rank.(G.slot_of g u)
    in
    let dists = ref (List.map start starts) in
    let worst ds = List.fold_left (fun acc d -> Float.max acc (tv_distance d pi)) 0.0 ds in
    let t = ref 0 in
    let result = ref None in
    while !result = None && !t <= max_steps do
      if worst !dists <= eps then result := Some !t
      else begin
        dists := List.map (step w) !dists;
        incr t
      end
    done;
    !result
  end
