(* Mutable simple graph over non-negative integer node ids: free-list
   node slots + sorted packed neighbour runs.

   Layout (DESIGN.md §4h):

     slots  : node id -> slot            (the only hash table; never iterated)
     ids    : slot -> node id            (free_slot when the slot is free)
     adj    : slot -> int array          (neighbour ids, sorted ascending
                                          in [0, deg); capacity beyond deg
                                          is scratch from earlier growth)
     deg    : slot -> live run length
     free   : freed slots, reused LIFO

   Nodes live in slots [0, used); removing a node pushes its slot on the
   free list and a later [add_node] reuses it (keeping the arrays dense
   under churn, which is what the million-node bench needs). Neighbour
   runs are kept sorted, so membership is a binary search, iteration is
   cache-friendly and [iter_neighbors] visits in ascending order.
   Mutation is O(deg) per endpoint (an array shift), the price paid for
   scan speed; Xheal graphs have O(log n) degree so this is cheap in
   practice.

   Everything here is deterministic as a function of the operation
   history: slot assignment (and therefore the [iter_nodes]/[iter_edges]
   orders) depends only on the sequence of adds and removes, never on
   hashing. *)

type t = {
  mutable ids : int array;
  mutable adj : int array array;
  mutable deg : int array;
  mutable used : int;
  mutable free : int list;
  slots : (int, int) Hashtbl.t;
  mutable n : int;
  mutable m : int;
}

(* Tombstone of a free slot in [ids]; [add_node] rejects negative ids,
   so no live node can collide with it. *)
let free_slot = min_int

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  {
    ids = Array.make capacity free_slot;
    adj = Array.make capacity [||];
    deg = Array.make capacity 0;
    used = 0;
    free = [];
    slots = Hashtbl.create capacity;
    n = 0;
    m = 0;
  }

let has_node g u = Hashtbl.mem g.slots u

let num_nodes g = g.n

let num_edges g = g.m

(* Grow the slot arrays so that slot [g.used] exists. *)
let reserve_slot g =
  let cap = Array.length g.ids in
  if g.used >= cap then begin
    let cap' = max 16 (2 * cap) in
    let ids = Array.make cap' free_slot in
    Array.blit g.ids 0 ids 0 cap;
    let adj = Array.make cap' [||] in
    Array.blit g.adj 0 adj 0 cap;
    let deg = Array.make cap' 0 in
    Array.blit g.deg 0 deg 0 cap;
    g.ids <- ids;
    g.adj <- adj;
    g.deg <- deg
  end

let add_node g u =
  if not (Hashtbl.mem g.slots u) then begin
    if u < 0 then invalid_arg "Graph.add_node: negative node id";
    let s =
      match g.free with
      | s :: rest ->
        g.free <- rest;
        s
      | [] ->
        reserve_slot g;
        let s = g.used in
        g.used <- g.used + 1;
        s
    in
    g.ids.(s) <- u;
    g.deg.(s) <- 0;
    Hashtbl.replace g.slots u s;
    g.n <- g.n + 1
  end

(* Binary search for [v] in the sorted run of slot [s]. Returns the
   index when present, otherwise [-(insertion point) - 1]. *)
let find_in_run g s v =
  let a = g.adj.(s) in
  let lo = ref 0 and hi = ref g.deg.(s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < g.deg.(s) && a.(!lo) = v then !lo else - !lo - 1

let insert_in_run g s v pos =
  let d = g.deg.(s) in
  let a =
    if d < Array.length g.adj.(s) then g.adj.(s)
    else begin
      let b = Array.make (max 4 (2 * Array.length g.adj.(s))) 0 in
      Array.blit g.adj.(s) 0 b 0 d;
      g.adj.(s) <- b;
      b
    end
  in
  Array.blit a pos a (pos + 1) (d - pos);
  a.(pos) <- v;
  g.deg.(s) <- d + 1

let remove_from_run g s pos =
  let a = g.adj.(s) and d = g.deg.(s) in
  Array.blit a (pos + 1) a pos (d - pos - 1);
  g.deg.(s) <- d - 1

let has_edge g u v =
  match Hashtbl.find_opt g.slots u with
  | None -> false
  | Some s -> find_in_run g s v >= 0

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  (* Checked before either endpoint is added, so a rejected edge leaves
     the graph unchanged. *)
  if u < 0 || v < 0 then invalid_arg "Graph.add_edge: negative node id";
  add_node g u;
  add_node g v;
  let su = Hashtbl.find g.slots u in
  let r = find_in_run g su v in
  if r >= 0 then false
  else begin
    insert_in_run g su v (-r - 1);
    let sv = Hashtbl.find g.slots v in
    let rv = find_in_run g sv u in
    insert_in_run g sv u (-rv - 1);
    g.m <- g.m + 1;
    true
  end

let remove_edge g u v =
  match Hashtbl.find_opt g.slots u with
  | None -> false
  | Some su ->
    let r = find_in_run g su v in
    if r < 0 then false
    else begin
      remove_from_run g su r;
      let sv = Hashtbl.find g.slots v in
      let rv = find_in_run g sv u in
      remove_from_run g sv rv;
      g.m <- g.m - 1;
      true
    end

let remove_node g u =
  match Hashtbl.find_opt g.slots u with
  | None -> ()
  | Some s ->
    let a = g.adj.(s) and d = g.deg.(s) in
    for k = 0 to d - 1 do
      let sv = Hashtbl.find g.slots a.(k) in
      let rv = find_in_run g sv u in
      remove_from_run g sv rv
    done;
    g.m <- g.m - d;
    g.deg.(s) <- 0;
    g.ids.(s) <- free_slot;
    Hashtbl.remove g.slots u;
    g.free <- s :: g.free;
    g.n <- g.n - 1

let iter_nodes f g =
  for s = 0 to g.used - 1 do
    if g.ids.(s) <> free_slot then f g.ids.(s)
  done

let fold_nodes f g init =
  let acc = ref init in
  for s = 0 to g.used - 1 do
    if g.ids.(s) <> free_slot then acc := f g.ids.(s) !acc
  done;
  !acc

let nodes g =
  let acc = ref [] in
  for s = g.used - 1 downto 0 do
    if g.ids.(s) <> free_slot then acc := g.ids.(s) :: !acc
  done;
  List.sort Int.compare !acc

let degree g u =
  match Hashtbl.find_opt g.slots u with None -> 0 | Some s -> g.deg.(s)

let iter_neighbors g u f =
  match Hashtbl.find_opt g.slots u with
  | None -> ()
  | Some s ->
    let a = g.adj.(s) in
    for k = 0 to g.deg.(s) - 1 do
      f a.(k)
    done

let fold_neighbors g u f init =
  match Hashtbl.find_opt g.slots u with
  | None -> init
  | Some s ->
    let a = g.adj.(s) in
    let acc = ref init in
    for k = 0 to g.deg.(s) - 1 do
      acc := f a.(k) !acc
    done;
    !acc

let neighbors g u =
  match Hashtbl.find_opt g.slots u with
  | None -> []
  | Some s ->
    let a = g.adj.(s) in
    let acc = ref [] in
    for k = g.deg.(s) - 1 downto 0 do
      acc := a.(k) :: !acc
    done;
    !acc

let iter_edges f g =
  for s = 0 to g.used - 1 do
    let u = g.ids.(s) in
    if u <> free_slot then begin
      let a = g.adj.(s) in
      for k = 0 to g.deg.(s) - 1 do
        if u < a.(k) then f (Edge.make u a.(k))
      done
    end
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun e -> acc := f e !acc) g;
  !acc

let edges g = List.sort Edge.compare (fold_edges (fun e acc -> e :: acc) g [])

let min_degree g =
  if g.n = 0 then 0
  else fold_nodes (fun u acc -> min acc (degree g u)) g max_int

let max_degree g = fold_nodes (fun u acc -> max acc (degree g u)) g 0

let copy g =
  {
    ids = Array.copy g.ids;
    adj = Array.map Array.copy g.adj;
    deg = Array.copy g.deg;
    used = g.used;
    free = g.free;
    slots = Hashtbl.copy g.slots;
    n = g.n;
    m = g.m;
  }

let of_edges ?(nodes = []) es =
  let g = create () in
  List.iter (fun u -> add_node g u) nodes;
  List.iter (fun (u, v) -> ignore (add_edge g u v)) es;
  g

let sub g ns =
  let g' = create ~capacity:(List.length ns) () in
  List.iter (fun u -> if has_node g u then add_node g' u) ns;
  List.iter
    (fun u -> iter_neighbors g u (fun v -> if u < v && has_node g' v then ignore (add_edge g' u v)))
    ns;
  g'

let union_into ~dst src =
  iter_nodes (fun u -> add_node dst u) src;
  iter_edges (fun e -> ignore (add_edge dst (Edge.src e) (Edge.dst e))) src

let equal g1 g2 =
  num_nodes g1 = num_nodes g2
  && num_edges g1 = num_edges g2
  && fold_nodes (fun u acc -> acc && has_node g2 u) g1 true
  && fold_edges (fun e acc -> acc && has_edge g2 (Edge.src e) (Edge.dst e)) g1 true

let check_invariants g =
  let err = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !err = None then err := Some s) fmt in
  let live = ref 0 and half_count = ref 0 in
  for s = 0 to g.used - 1 do
    let u = g.ids.(s) in
    if u = free_slot then begin
      if g.deg.(s) <> 0 then fail "free slot %d has non-zero degree" s
    end
    else begin
      incr live;
      (match Hashtbl.find_opt g.slots u with
      | Some s' when s' = s -> ()
      | Some s' -> fail "node %d maps to slot %d but lives in slot %d" u s' s
      | None -> fail "node %d in slot %d missing from the slot table" u s);
      let a = g.adj.(s) and d = g.deg.(s) in
      if d > Array.length a then fail "slot %d degree %d exceeds run capacity" s d;
      for k = 0 to d - 1 do
        incr half_count;
        let v = a.(k) in
        if v = u then fail "self-loop at %d" u;
        if k > 0 && a.(k - 1) >= v then fail "unsorted neighbour run at node %d" u;
        match Hashtbl.find_opt g.slots v with
        | None -> fail "edge %d--%d points to missing node %d" u v v
        | Some sv -> if find_in_run g sv u < 0 then fail "asymmetric edge %d--%d" u v
      done
    end
  done;
  if !live <> g.n then fail "node count mismatch: %d live slots, recorded n=%d" !live g.n;
  if Hashtbl.length g.slots <> g.n then
    fail "slot table has %d entries, recorded n=%d" (Hashtbl.length g.slots) g.n;
  if !half_count <> 2 * g.m then
    fail "edge count mismatch: counted %d half-edges, recorded m=%d" !half_count g.m;
  match !err with None -> Ok () | Some s -> Error s

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" (num_nodes g) (num_edges g)

(* ------------------------------------------------------------------ *)
(* Packed (frozen) CSR view: the linalg/traversal/cuts hot paths      *)
(* index nodes as [0 .. n-1] in sorted-id order and scan rows         *)
(* straight out of int arrays with no per-node allocation.            *)

type packed = {
  p_ids : int array; (* packed index -> node id, sorted ascending *)
  row_ptr : int array; (* length n+1 *)
  cols : int array; (* packed indices, sorted within each row *)
}

(* Binary search in a sorted id array (always present). *)
(* xlint: hot *)
let packed_index p u =
  let a = p.p_ids in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = u then !lo
  else invalid_arg "Graph.packed_index: node not in packed view"

(* Sort the live ids (merge sort: fewer comparisons than the heap sort
   of [Array.sort], same output on ints), then record each slot's rank
   — its packed index — so a half-edge costs one slot-table lookup and
   one array read. *)
(* xlint: hot *)
let pack g =
  let ids = Array.make g.n 0 in
  let k = ref 0 in
  for s = 0 to g.used - 1 do
    if g.ids.(s) <> free_slot then begin
      ids.(!k) <- g.ids.(s);
      incr k
    end
  done;
  Array.stable_sort Int.compare ids;
  let rank = Array.make g.used 0 in
  let row_ptr = Array.make (g.n + 1) 0 in
  for i = 0 to g.n - 1 do
    let s = Hashtbl.find g.slots ids.(i) in
    rank.(s) <- i;
    row_ptr.(i + 1) <- row_ptr.(i) + g.deg.(s)
  done;
  let cols = Array.make row_ptr.(g.n) 0 in
  for s = 0 to g.used - 1 do
    if g.ids.(s) <> free_slot then begin
      let a = g.adj.(s) and base = row_ptr.(rank.(s)) in
      (* The run is sorted by id and rank is monotone in id, so each
         output row is already sorted. *)
      for k = 0 to g.deg.(s) - 1 do
        cols.(base + k) <- rank.(Hashtbl.find g.slots a.(k))
      done
    end
  done;
  { p_ids = ids; row_ptr; cols }
