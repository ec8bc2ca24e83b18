module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal

type t = { name : string; next : Graph.t -> Event.t option }

let pick_random ~rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Random.State.int rng (List.length xs)))

(* Strategies stop deleting below this many nodes, so measurements are
   taken on non-degenerate graphs. *)
let min_nodes = 4

let deleter name choose =
  {
    name;
    next =
      (fun g ->
        if Graph.num_nodes g < min_nodes then None
        else Option.map (fun v -> Event.Delete v) (choose g));
  }

let random_delete ~rng () =
  deleter "random-delete" (fun g -> pick_random ~rng (Graph.nodes g))

let extreme_degree ~rng g best =
  let candidates =
    List.fold_left
      (fun acc u ->
        match acc with
        | [] -> [ u ]
        | top :: _ ->
          let c = best (Graph.degree g u) (Graph.degree g top) in
          if c > 0 then [ u ] else if c = 0 then u :: acc else acc)
      [] (Graph.nodes g)
  in
  pick_random ~rng candidates

let hub_delete ~rng () =
  deleter "hub-delete" (fun g -> extreme_degree ~rng g Int.compare)

let min_degree_delete ~rng () =
  deleter "min-degree-delete" (fun g -> extreme_degree ~rng g (fun a b -> Int.compare b a))

let cutpoint_delete ~rng () =
  deleter "cutpoint-delete" (fun g ->
      match Traversal.articulation_points g with
      | [] -> extreme_degree ~rng g Int.compare
      | cuts -> pick_random ~rng cuts)

let bottleneck_delete ~rng () =
  deleter "bottleneck-delete" (fun g ->
      if not (Traversal.is_connected g) then extreme_degree ~rng g Int.compare
      else begin
        let s = Xheal_linalg.Spectral.analyze ~rng g in
        let set, _ = Xheal_graph.Cuts.sweep_best_cut g ~scores:s.Xheal_linalg.Spectral.fiedler in
        match set with
        | [] -> extreme_degree ~rng g Int.compare
        | _ ->
          let inside = Hashtbl.create (List.length set) in
          List.iter (fun u -> Hashtbl.replace inside u ()) set;
          (* Boundary node with the most crossing edges. *)
          let crossing u =
            Graph.fold_neighbors g u
              (fun v acc -> if Hashtbl.mem inside v <> Hashtbl.mem inside u then acc + 1 else acc)
              0
          in
          (* Sorted fold with a ties-to-smaller-id break: the winner must
             be canonical (independent of the slot layout), not a
             fold-order accident. *)
          let best =
            List.fold_left
              (fun acc u ->
                let c = crossing u in
                match acc with
                | Some (_, cb) when cb >= c -> acc
                | _ -> if c > 0 then Some (u, c) else acc)
              None (Graph.nodes g)
          in
          (match best with
          | Some (u, _) -> Some u
          | None -> extreme_degree ~rng g Int.compare)
      end)

let sample_distinct ~rng k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)

let churn ?(insert_prob = 0.5) ?(attach = 3) ~rng ~first_id () =
  let next_id = ref first_id in
  {
    name = Printf.sprintf "churn(p=%.2f,k=%d)" insert_prob attach;
    next =
      (fun g ->
        let n = Graph.num_nodes g in
        if n = 0 then None
        else begin
          let do_insert = n < min_nodes || Random.State.float rng 1.0 < insert_prob in
          if do_insert then begin
            let node = !next_id in
            incr next_id;
            Some (Event.Insert { node; neighbors = sample_distinct ~rng attach (Graph.nodes g) })
          end
          else Option.map (fun v -> Event.Delete v) (pick_random ~rng (Graph.nodes g))
        end);
  }

let weighted_by_degree ~rng g k =
  (* Sample k distinct nodes with probability proportional to degree+1. *)
  let nodes = Array.of_list (Graph.nodes g) in
  let weights = Array.map (fun u -> float_of_int (Graph.degree g u + 1)) nodes in
  let chosen = Hashtbl.create k in
  let total = ref (Array.fold_left ( +. ) 0.0 weights) in
  let budget = min k (Array.length nodes) in
  while Hashtbl.length chosen < budget && !total > 0.0 do
    let r = Random.State.float rng !total in
    let acc = ref 0.0 and hit = ref (-1) in
    Array.iteri
      (fun i w ->
        if !hit < 0 && w > 0.0 then begin
          acc := !acc +. w;
          if !acc >= r then hit := i
        end)
      weights;
    if !hit >= 0 then begin
      Hashtbl.replace chosen nodes.(!hit) ();
      total := !total -. weights.(!hit);
      weights.(!hit) <- 0.0
    end
    else total := 0.0
  done;
  (* Sorted: the hash-order list would leak into edge-insertion order
     downstream and break seeded replay. *)
  List.sort Int.compare (Hashtbl.fold (fun u () acc -> u :: acc) chosen [])

let adaptive_churn ?(insert_prob = 0.5) ?(attach = 3) ~rng ~first_id () =
  let next_id = ref first_id in
  {
    name = Printf.sprintf "adaptive-churn(p=%.2f,k=%d)" insert_prob attach;
    next =
      (fun g ->
        let n = Graph.num_nodes g in
        if n = 0 then None
        else begin
          let do_insert = n < min_nodes || Random.State.float rng 1.0 < insert_prob in
          if do_insert then begin
            let node = !next_id in
            incr next_id;
            Some (Event.Insert { node; neighbors = weighted_by_degree ~rng g attach })
          end
          else Option.map (fun v -> Event.Delete v) (extreme_degree ~rng g Int.compare)
        end);
  }

let scripted events =
  let remaining = ref events in
  {
    name = "scripted";
    next =
      (fun _ ->
        match !remaining with
        | [] -> None
        | e :: rest ->
          remaining := rest;
          Some e);
  }
