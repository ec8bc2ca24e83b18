(* One family of BFS kernels, run straight on the store's neighbour
   runs ({!Graph.view}) with slot-indexed scratch, so no traversal
   packs the graph. Each expands neighbours in ascending (canonical) id
   order, so visit orders do not depend on the slot layout, and none
   allocates in its loops.

   [slot_bfs] is the single-source search behind the component count
   and every list-returning traversal; [slot_pair_distance] answers
   one pair. The kernels and [diameter] are hot regions: the H-rules
   keep their loops allocation-free. The list-returning traversals
   build their results by nature and are deliberately unmarked. *)

(* One BFS from slot [src], appending its visits to [queue] from
   position [from]. [dist] must hold [-1] at every unvisited slot; each
   reached slot gets its hop distance from [src]. Returns the queue's
   new end. *)
(* A marker above this first binding would read as module-level; on the
   binding's own line it scopes the hot region to slot_bfs alone. *)
let slot_bfs (v : Graph.view) ~dist ~queue ~from src = (* xlint: hot *)
  let head = ref from and tail = ref (from + 1) in
  dist.(src) <- 0;
  queue.(from) <- src;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 and run = v.Graph.v_adj.(u) in
    for k = 0 to v.Graph.v_deg.(u) - 1 do
      let w = run.(k) in
      if dist.(w) < 0 then begin
        dist.(w) <- du;
        queue.(!tail) <- w;
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
  let count = ref 0 and tail = ref 0 in
  for s = 0 to v.Graph.v_used - 1 do
    if
      v.Graph.v_ids.(s) >= 0
      && dist.(s) < 0
      && match live with None -> true | Some l -> l.(s)
    then begin
      incr count;
      tail := slot_bfs v ~dist ~queue ~from:!tail s
    end
  done;
  for k = 0 to !tail - 1 do
    dist.(queue.(k)) <- -1
  done;
  visited := !visited + !tail;
  !count

(* Fresh scratch for one traversal of the whole slot space. *)
let scratch (v : Graph.view) = (Array.make v.Graph.v_used (-1), Array.make v.Graph.v_used 0)

let bfs_distances g s =
  let table = Hashtbl.create 64 in
  let src = Graph.slot_of g s in
  if src >= 0 then begin
    let v = Graph.view g in
    let dist, queue = scratch v in
    for k = 0 to slot_bfs v ~dist ~queue ~from:0 src - 1 do
      let u = queue.(k) in
      Hashtbl.replace table v.Graph.v_ids.(u) dist.(u)
    done
  end;
  table

let distance g s t =
  let a = Graph.slot_of g s and b = Graph.slot_of g t in
  if a < 0 || b < 0 then None
  else begin
    let v = Graph.view g in
    let dist, queue = scratch v in
    match slot_pair_distance v ~dist ~queue ~visited:(ref 0) a b with
    | -1 -> None
    | d -> Some d
  end

(* The ids of queue positions [from, until), ascending. *)
let ids_between (v : Graph.view) queue from until =
  List.sort Int.compare (List.init (until - from) (fun k -> v.Graph.v_ids.(queue.(from + k))))

let component_of g s =
  let src = Graph.slot_of g s in
  if src < 0 then []
  else begin
    let v = Graph.view g in
    let dist, queue = scratch v in
    ids_between v queue 0 (slot_bfs v ~dist ~queue ~from:0 src)
  end

(* Slots follow the operation history, so the components are found in
   slot order and then ordered by their smallest (first) member. *)
let components g =
  let v = Graph.view g in
  let dist, queue = scratch v in
  let comps = ref [] and tail = ref 0 in
  for s = 0 to v.Graph.v_used - 1 do
    if v.Graph.v_ids.(s) >= 0 && dist.(s) < 0 then begin
      let from = !tail in
      tail := slot_bfs v ~dist ~queue ~from s;
      comps := ids_between v queue from !tail :: !comps
    end
  done;
  List.sort (fun a b -> Int.compare (List.hd a) (List.hd b)) !comps

let num_components g =
  let v = Graph.view g in
  let dist, queue = scratch v in
  slot_num_components v ~dist ~queue ~visited:(ref 0)

let is_connected g = num_components g <= 1

(* xlint: hot *)
let diameter g =
  let v = Graph.view g in
  let n = v.Graph.v_nodes in
  if n = 0 then None
  else begin
    (* All-sources BFS on one scratch: each search reads its maximum
       off the slots it labelled and resets them. *)
    let dist, queue = scratch v in
    let best = ref 0 and connected = ref true and s = ref 0 in
    while !connected && !s < v.Graph.v_used do
      if v.Graph.v_ids.(!s) >= 0 then begin
        let reached = slot_bfs v ~dist ~queue ~from:0 !s in
        if reached <> n then connected := false;
        for k = 0 to reached - 1 do
          let u = queue.(k) in
          if dist.(u) > !best then best := dist.(u);
          dist.(u) <- -1
        done
      end;
      incr s
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
