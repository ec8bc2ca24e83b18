let empty n =
  let g = Graph.create ~capacity:n () in
  for u = 0 to n - 1 do
    Graph.add_node g u
  done;
  g

let path n =
  let g = empty n in
  for u = 0 to n - 2 do
    ignore (Graph.add_edge g u (u + 1))
  done;
  g

let cycle n =
  let g = path n in
  if n >= 3 then ignore (Graph.add_edge g (n - 1) 0);
  g

let star n =
  let g = empty n in
  for u = 1 to n - 1 do
    ignore (Graph.add_edge g 0 u)
  done;
  g

let complete n =
  let g = empty n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Graph.add_edge g u v)
    done
  done;
  g

let grid rows cols =
  let g = empty (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then ignore (Graph.add_edge g (id r c) (id r (c + 1)));
      if r + 1 < rows then ignore (Graph.add_edge g (id r c) (id (r + 1) c))
    done
  done;
  g

let erdos_renyi ~rng n p =
  (* Written so that NaN fails too. *)
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Generators.erdos_renyi: p must be in [0, 1]";
  let g = empty n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then ignore (Graph.add_edge g u v)
    done
  done;
  g

let shuffle ~rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffle_list ~rng l =
  let a = Array.of_list l in
  shuffle ~rng a;
  Array.to_list a

(* Configuration (pairing) model with edge-swap repair: a random pairing
   of degree stubs almost always contains a few self-loops and parallel
   edges; instead of rejecting the whole sample (hopeless for d ≥ 5),
   defective pair slots are fixed by crossing them with uniformly random
   other slots until the multigraph is simple. This is the standard
   practical sampler and is near-uniform over d-regular simple graphs. *)
let random_regular ~rng n d =
  if d >= n then invalid_arg "Generators.random_regular: need d < n";
  if n * d mod 2 <> 0 then invalid_arg "Generators.random_regular: n*d must be even";
  if d < 0 then invalid_arg "Generators.random_regular: negative degree";
  if d = 0 then empty n
  else begin
    let m = n * d / 2 in
    let key u v = if u < v then (u, v) else (v, u) in
    let attempt () =
      let stubs = Array.make (n * d) 0 in
      let k = ref 0 in
      for u = 0 to n - 1 do
        for _ = 1 to d do
          stubs.(!k) <- u;
          incr k
        done
      done;
      shuffle ~rng stubs;
      let ea = Array.make m 0 and eb = Array.make m 0 in
      for i = 0 to m - 1 do
        ea.(i) <- stubs.(2 * i);
        eb.(i) <- stubs.((2 * i) + 1)
      done;
      let count = Hashtbl.create m in
      let multiplicity u v =
        if u = v then max_int else Option.value ~default:0 (Hashtbl.find_opt count (key u v))
      in
      let bump u v delta =
        if u <> v then begin
          let c = Option.value ~default:0 (Hashtbl.find_opt count (key u v)) + delta in
          if c <= 0 then Hashtbl.remove count (key u v) else Hashtbl.replace count (key u v) c
        end
      in
      for i = 0 to m - 1 do
        bump ea.(i) eb.(i) 1
      done;
      let is_bad i = ea.(i) = eb.(i) || multiplicity ea.(i) eb.(i) > 1 in
      let queue = Queue.create () in
      for i = 0 to m - 1 do
        Queue.add i queue
      done;
      let budget = ref ((200 * m) + 1000) in
      while (not (Queue.is_empty queue)) && !budget > 0 do
        let i = Queue.pop queue in
        if is_bad i then begin
          decr budget;
          let j = Random.State.int rng m in
          if j <> i then begin
            let u1 = ea.(i) and v1 = eb.(i) and u2 = ea.(j) and v2 = eb.(j) in
            (* Cross the two slots: (u1,v2) and (u2,v1). *)
            bump u1 v1 (-1);
            bump u2 v2 (-1);
            let ok =
              u1 <> v2 && u2 <> v1
              && multiplicity u1 v2 = 0
              && multiplicity u2 v1 = 0
              && key u1 v2 <> key u2 v1
            in
            if ok then begin
              eb.(i) <- v2;
              eb.(j) <- v1;
              bump u1 v2 1;
              bump u2 v1 1;
              Queue.add j queue
            end
            else begin
              bump u1 v1 1;
              bump u2 v2 1
            end
          end;
          (* Re-examine this slot until it is clean. *)
          if is_bad i then Queue.add i queue
        end
      done;
      let clean = ref true in
      for i = 0 to m - 1 do
        if is_bad i then clean := false
      done;
      if not !clean then None
      else begin
        let g = empty n in
        for i = 0 to m - 1 do
          ignore (Graph.add_edge g ea.(i) eb.(i))
        done;
        Some g
      end
    in
    let rec go tries =
      if tries = 0 then
        failwith "Generators.random_regular: repair failed (pathological parameters)"
      else match attempt () with Some g -> g | None -> go (tries - 1)
    in
    go 10
  end

let random_h_graph ~rng n d =
  if n < 3 then invalid_arg "Generators.random_h_graph: need n >= 3";
  if d < 1 then invalid_arg "Generators.random_h_graph: d must be >= 1";
  let g = empty n in
  let perm = Array.init n (fun i -> i) in
  for _ = 1 to d do
    shuffle ~rng perm;
    for i = 0 to n - 1 do
      let u = perm.(i) and v = perm.((i + 1) mod n) in
      ignore (Graph.add_edge g u v)
    done
  done;
  g

let preferential_attachment ~rng n k =
  if n < 2 then invalid_arg "Generators.preferential_attachment: n must be >= 2";
  if k < 1 then invalid_arg "Generators.preferential_attachment: k must be >= 1";
  let seed = max 2 (min n (k + 1)) in
  let g = complete seed in
  (* Degree-proportional sampling via a repeated-endpoint urn. Seeded
     from the sorted edge list: the urn layout decides every later
     degree-proportional draw, so it must be canonical (independent of
     the slot layout), not an iteration-order accident. *)
  let urn = ref [] in
  List.iter
    (fun e -> urn := Edge.src e :: Edge.dst e :: !urn)
    (List.rev (Graph.edges g));
  let urn = ref (Array.of_list !urn) in
  let urn_len = ref (Array.length !urn) in
  let push u =
    if !urn_len >= Array.length !urn then begin
      let bigger = Array.make (max 16 (2 * Array.length !urn)) 0 in
      Array.blit !urn 0 bigger 0 !urn_len;
      urn := bigger
    end;
    !urn.(!urn_len) <- u;
    incr urn_len
  in
  for u = seed to n - 1 do
    Graph.add_node g u;
    let targets = Hashtbl.create k in
    let guard = ref 0 in
    while Hashtbl.length targets < min k u && !guard < 50 * k do
      incr guard;
      let v = !urn.(Random.State.int rng !urn_len) in
      if v <> u then Hashtbl.replace targets v ()
    done;
    (* Attach in sorted order: hash order would decide what lands in
       the urn first and skew every later degree-proportional draw. *)
    List.iter
      (fun v ->
        if Graph.add_edge g u v then begin
          push u;
          push v
        end)
      (List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) targets []))
  done;
  g

let connected_er ~rng n p =
  (* Resampling at p <= 0 (or NaN) never connects two nodes. *)
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Generators.connected_er: p must be in (0, 1]";
  let rec go p tries =
    let g = erdos_renyi ~rng n p in
    if Traversal.is_connected g then g
    else if tries > 20 then go (min 1.0 (p *. 1.3)) 0
    else go p (tries + 1)
  in
  if n = 0 then empty 0 else go p 0

let margulis m =
  if m < 2 then invalid_arg "Generators.margulis: need m >= 2";
  let g = empty (m * m) in
  let id x y = (((x mod m) + m) mod m * m) + (((y mod m) + m) mod m) in
  for x = 0 to m - 1 do
    for y = 0 to m - 1 do
      let u = id x y in
      let connect v = if u <> v then ignore (Graph.add_edge g u v) in
      connect (id (x + (2 * y)) y);
      connect (id (x - (2 * y)) y);
      connect (id (x + (2 * y) + 1) y);
      connect (id (x - (2 * y) - 1) y);
      connect (id x (y + (2 * x)));
      connect (id x (y - (2 * x)));
      connect (id x (y + (2 * x) + 1));
      connect (id x (y - (2 * x) - 1))
    done
  done;
  g

