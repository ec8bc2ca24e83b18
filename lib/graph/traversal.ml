(* Two families of BFS kernels, both allocation-free in their loops
   and both expanding neighbours in ascending (canonical) id order,
   independent of the slot layout:

   - packed cores ([bfs_core]) run on the CSR view ({!Graph.pack}) and
     serve the list-returning traversals (components, component_of,
     ...), which index their results by rank;
   - slot cores run straight on the store ({!Graph.view}) with
     slot-indexed scratch the caller keeps across calls, so a per-check
     reader (the obs monitor) pays no pack.

   The flat cores (bfs_core, the slot cores, is_connected, diameter)
   are hot regions: the H-rules keep their loops allocation-free. The
   list-returning traversals build their results by nature and are
   deliberately unmarked. *)

(* One BFS from packed index [src]. [dist] must hold [-1] at every
   unvisited entry; [dist] is written in place and [queue] ends up
   holding the visit order. Returns the number of nodes reached. *)
(* A marker above this first binding would read as module-level; on the
   binding's own line it scopes the hot region to bfs_core alone. *)
let bfs_core (p : Graph.packed) dist queue src = (* xlint: hot *)
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for k = p.Graph.row_ptr.(u) to p.Graph.row_ptr.(u + 1) - 1 do
      let v = p.Graph.cols.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* Level-synchronous bidirectional BFS. The source side labels [dist]
   with its hop distance d >= 0 and fills [queue] from the front; the
   target side labels -2-d and fills it from the back, so one label
   names both the side and the distance and the two regions never meet
   (no slot is labelled twice). Each round expands one whole level of
   the side with the smaller frontier. Before a round the labelled sets
   are the balls of radius a around [s] and b around [t], and they are
   disjoint, so the distance is at least a+b+1; the first edge from the
   expanded level into a slot the other side labelled (at depth y <= b)
   closes a path of length a+1+y, so it is exact and the search stops
   there. *)
(* xlint: hot *)
let slot_pair_distance (v : Graph.view) ~dist ~queue ~visited s t =
  let last = Array.length queue - 1 in
  (* Each side's frontier is its queue positions [head, tail). A round
     works on copies of its side's pair: a ref chosen by value would
     have to live on the heap. *)
  let shead = ref 0 and stail = ref 1 and thead = ref 0 and ttail = ref 0 in
  let head = ref 0 and tail = ref 0 and found = ref (-1) and k = ref 0 in
  dist.(s) <- 0;
  queue.(0) <- s;
  if s = t then found := 0
  else begin
    dist.(t) <- -2;
    queue.(last) <- t;
    ttail := 1
  end;
  while !found < 0 && !shead < !stail && !thead < !ttail do
    let forward = !stail - !shead <= !ttail - !thead in
    head := if forward then !shead else !thead;
    tail := if forward then !stail else !ttail;
    let base = if forward then 0 else last and step = if forward then 1 else -1 in
    let level = !tail in
    while !found < 0 && !head < level do
      let u = queue.(base + (step * !head)) in
      incr head;
      let du = dist.(u) + step and run = v.Graph.v_adj.(u) and deg = v.Graph.v_deg.(u) in
      k := 0;
      while !found < 0 && !k < deg do
        let w = run.(!k) in
        incr k;
        let dw = dist.(w) in
        if dw = -1 then begin
          dist.(w) <- du;
          queue.(base + (step * !tail)) <- w;
          incr tail
        end
        else if (dw < 0) <> (du < 0) then found := abs (du - dw) - 2
      done
    done;
    if forward then begin
      shead := !head;
      stail := !tail
    end
    else begin
      thead := !head;
      ttail := !tail
    end
  done;
  for p = 0 to !stail - 1 do
    dist.(queue.(p)) <- -1
  done;
  for p = 0 to !ttail - 1 do
    dist.(queue.(last - p)) <- -1
  done;
  visited := !visited + !stail + !ttail;
  !found

(* One BFS per counted component, each appending its visits to [queue]
   after the previous one's, so the whole prefix resets [dist] at the
   end. *)
(* xlint: hot *)
let slot_num_components ?live (v : Graph.view) ~dist ~queue ~visited =
  let count = ref 0 and head = ref 0 and tail = ref 0 in
  for s = 0 to v.Graph.v_used - 1 do
    if
      v.Graph.v_ids.(s) >= 0
      && dist.(s) < 0
      && match live with None -> true | Some l -> l.(s)
    then begin
      incr count;
      dist.(s) <- 0;
      queue.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let run = v.Graph.v_adj.(u) in
        for k = 0 to v.Graph.v_deg.(u) - 1 do
          let w = run.(k) in
          if dist.(w) < 0 then begin
            dist.(w) <- 0;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  for k = 0 to !tail - 1 do
    dist.(queue.(k)) <- -1
  done;
  visited := !visited + !tail;
  !count

let bfs_distances g s =
  let dist = Hashtbl.create 64 in
  if Graph.has_node g s then begin
    let p = Graph.pack g in
    let n = Array.length p.Graph.p_ids in
    let d = Array.make n (-1) and q = Array.make n 0 in
    ignore (bfs_core p d q (Graph.packed_index p s));
    for i = 0 to n - 1 do
      if d.(i) >= 0 then Hashtbl.replace dist p.Graph.p_ids.(i) d.(i)
    done
  end;
  dist

let distance g s t =
  if not (Graph.has_node g s && Graph.has_node g t) then None
  else Hashtbl.find_opt (bfs_distances g s) t

let component_of g s =
  if not (Graph.has_node g s) then []
  else begin
    let p = Graph.pack g in
    let n = Array.length p.Graph.p_ids in
    let d = Array.make n (-1) and q = Array.make n 0 in
    let reached = bfs_core p d q (Graph.packed_index p s) in
    List.sort Int.compare (List.init reached (fun k -> p.Graph.p_ids.(q.(k))))
  end

let components g =
  let p = Graph.pack g in
  let n = Array.length p.Graph.p_ids in
  let d = Array.make n (-1) and q = Array.make n 0 in
  let comps = ref [] in
  (* Packed indices ascend with node ids, so scanning them in order
     emits components ordered by smallest member. *)
  for i = 0 to n - 1 do
    if d.(i) < 0 then begin
      let reached = bfs_core p d q i in
      comps :=
        List.sort Int.compare (List.init reached (fun k -> p.Graph.p_ids.(q.(k)))) :: !comps
    end
  done;
  List.rev !comps

let num_components g =
  let v = Graph.view g in
  slot_num_components v
    ~dist:(Array.make v.Graph.v_used (-1))
    ~queue:(Array.make v.Graph.v_used 0)
    ~visited:(ref 0)

(* xlint: hot *)
let is_connected g =
  let p = Graph.pack g in
  let n = Array.length p.Graph.p_ids in
  n = 0
  ||
  let d = Array.make n (-1) and q = Array.make n 0 in
  bfs_core p d q 0 = n

(* xlint: hot *)
(* xlint: hot *)
let diameter g =
  let p = Graph.pack g in
  let n = Array.length p.Graph.p_ids in
  if n = 0 then None
  else begin
    (* All-sources BFS over one packed view, scratch arrays reused. *)
    let d = Array.make n (-1) and q = Array.make n 0 in
    let best = ref 0 and connected = ref true in
    let i = ref 0 in
    while !connected && !i < n do
      Array.fill d 0 n (-1);
      if bfs_core p d q !i <> n then connected := false
      else
        for j = 0 to n - 1 do
          if d.(j) > !best then best := d.(j)
        done;
      incr i
    done;
    if !connected then Some !best else None
  end

(* Tarjan low-link articulation points, iterative to survive deep graphs. *)
let articulation_points g =
  let disc = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let cut = Hashtbl.create 16 in
  let timer = ref 0 in
  let visit_root root =
    if not (Hashtbl.mem disc root) then begin
      (* Stack frames: (node, parent, remaining sorted neighbours). *)
      let stack = ref [ (root, -1, ref (Graph.neighbors g root)) ] in
      Hashtbl.replace disc root !timer;
      Hashtbl.replace low root !timer;
      incr timer;
      let root_children = ref 0 in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (u, parent, rest) :: tl -> (
          match !rest with
          | [] ->
            stack := tl;
            (match tl with
            | (p, _, _) :: _ ->
              let lu = Hashtbl.find low u in
              if lu < Hashtbl.find low p then Hashtbl.replace low p lu;
              if p <> root && Hashtbl.find low u >= Hashtbl.find disc p then
                Hashtbl.replace cut p ()
            | [] -> ())
          | v :: vs ->
            rest := vs;
            if v = parent then ()
            else if Hashtbl.mem disc v then begin
              let dv = Hashtbl.find disc v in
              if dv < Hashtbl.find low u then Hashtbl.replace low u dv
            end
            else begin
              if u = root then incr root_children;
              Hashtbl.replace disc v !timer;
              Hashtbl.replace low v !timer;
              incr timer;
              stack := (v, u, ref (Graph.neighbors g v)) :: !stack
            end)
      done;
      if !root_children >= 2 then Hashtbl.replace cut root ()
    end
  in
  List.iter visit_root (Graph.nodes g);
  List.sort Int.compare (Hashtbl.fold (fun u () acc -> u :: acc) cut [])
