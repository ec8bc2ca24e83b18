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

(* [slot_bfs_until]'s mark, in [dist], of a wanted slot not yet
   discovered. *)
let unfound = -2

(* xlint: hot *)
let slot_bfs_until (v : Graph.view) ~dist ~queue ~wanted src =
  let remaining = ref 0 in
  for i = 0 to Array.length wanted - 1 do
    let w = wanted.(i) in
    if w >= 0 && dist.(w) = -1 then begin
      dist.(w) <- unfound;
      incr remaining
    end
  done;
  if dist.(src) = unfound then decr remaining;
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !remaining > 0 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 and run = v.Graph.v_adj.(u) in
    for k = 0 to v.Graph.v_deg.(u) - 1 do
      let w = run.(k) in
      if dist.(w) < 0 then begin
        if dist.(w) = unfound then decr remaining;
        dist.(w) <- du;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  (* The wanted slots the search never reached read as unreachable. *)
  for i = 0 to Array.length wanted - 1 do
    let w = wanted.(i) in
    if w >= 0 && dist.(w) = unfound then dist.(w) <- -1
  done;
  !tail

(* One BFS per counted component, each appending its visits to [queue]
   after the previous one's, so the whole prefix resets [dist] at the
   end. *)
(* xlint: hot *)
let slot_num_components ?live (v : Graph.view) ~dist ~queue =
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
  slot_num_components v ~dist:(Array.make v.Graph.v_used (-1)) ~queue:(Array.make v.Graph.v_used 0)

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
