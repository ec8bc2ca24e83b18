module G = Xheal_graph.Graph

let stationary (p : G.packed) =
  let n = Array.length p.G.p_ids in
  let total = float_of_int (Array.length p.G.cols) in
  Vec.init n (fun i ->
      if total = 0.0 then 1.0 /. float_of_int (max 1 n)
      else float_of_int (p.G.row_ptr.(i + 1) - p.G.row_ptr.(i)) /. total)

let step_distribution (p : G.packed) x =
  let n = Array.length p.G.p_ids in
  let y = Vec.create n in
  for i = 0 to n - 1 do
    let lo = p.G.row_ptr.(i) and hi = p.G.row_ptr.(i + 1) in
    if hi = lo then y.(i) <- y.(i) +. x.(i)
    else begin
      y.(i) <- y.(i) +. (0.5 *. x.(i));
      let share = 0.5 *. x.(i) /. float_of_int (hi - lo) in
      for e = lo to hi - 1 do
        let j = p.G.cols.(e) in
        y.(j) <- y.(j) +. share
      done
    end
  done;
  y

let tv_distance p q =
  if Vec.dim p <> Vec.dim q then invalid_arg "Randwalk.tv_distance: dimension mismatch";
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. Float.abs (v -. q.(i))) p;
  0.5 *. !s

let mixing_time ?(eps = 0.25) ?max_steps ?starts g =
  let n = G.num_nodes g in
  if n = 0 then Some 0
  else begin
    let p = G.pack g in
    let pi = stationary p in
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
      Vec.basis n (G.packed_index p u)
    in
    let dists = ref (List.map start starts) in
    let worst ds = List.fold_left (fun acc d -> Float.max acc (tv_distance d pi)) 0.0 ds in
    let t = ref 0 in
    let result = ref None in
    while !result = None && !t <= max_steps do
      if worst !dists <= eps then result := Some !t
      else begin
        dists := List.map (fun d -> step_distribution p d) !dists;
        incr t
      end
    done;
    !result
  end
