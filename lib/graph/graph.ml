(* Mutable simple graph over non-negative integer node ids: free-list
   node slots + sorted neighbour runs.

   Layout (DESIGN.md §4h):

     slots  : node id -> slot            (the only hash table, int-keyed
                                          via Hashtbl.Make; never iterated)
     ids    : slot -> node id            (free_slot when the slot is free)
     adj    : slot -> int array          (neighbour slots, sorted by
                                          neighbour id in [0, deg);
                                          capacity beyond deg is scratch
                                          from earlier growth)
     deg    : slot -> live run length
     free   : freed slots, reused LIFO

   Nodes live in slots [0, used); removing a node pushes its slot on the
   free list and a later [add_node] reuses it (keeping the arrays dense
   under churn, which perfbench's n = 10^5 workloads need). A run holds
   its neighbours' slots, so a mutation reaches a neighbour's run, a
   slot-space BFS over [view] reaches a neighbour's scratch entry, and
   a rank-indexed reader reaches a neighbour's rank (a slot-indexed
   array filled from [slots_by_id]), each without a slot-table lookup;
   runs stay sorted by neighbour id, so membership is a binary search
   over [ids.(slot)] and [fold_neighbors] visits in ascending id order.
   Removing a node removes its slot from every neighbour's run before
   the slot is freed, so no run ever names a free or reused slot.
   Mutation is O(deg) per endpoint (an array shift), the price paid for
   scan speed; Xheal graphs have O(log n) degree so this is cheap in
   practice.

   Everything here is deterministic as a function of the operation
   history: slot assignment (and therefore the [iter_nodes]/[iter_edges]
   orders) depends only on the sequence of adds and removes, never on
   hashing. *)

(* Node id -> slot, with monomorphic equality and an identity hash (ids
   are non-negative and mostly dense), so a lookup never reaches the
   polymorphic hash or compare. *)
module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash u = u land max_int
end)

type t = {
  mutable ids : int array;
  mutable adj : int array array;
  mutable deg : int array;
  mutable used : int;
  mutable free : int list;
  slots : int Slots.t;
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
    slots = Slots.create capacity;
    n = 0;
    m = 0;
  }

(* Slot of node [u], or -1 when absent. *)
let slot_of g u = match Slots.find g.slots u with s -> s | exception Not_found -> -1

let has_node g u = Slots.mem g.slots u

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

(* Slot of node [u], adding the node first when absent. *)
let ensure_slot g u =
  match Slots.find g.slots u with
  | s -> s
  | exception Not_found ->
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
    Slots.add g.slots u s;
    g.n <- g.n + 1;
    s

let add_node g u = ignore (ensure_slot g u)

(* Binary search for node id [v] in the run of slot [s]. Returns the
   index when present, otherwise [-(insertion point) - 1]. *)
let find_in_run g s v =
  let a = g.adj.(s) and ids = g.ids in
  let lo = ref 0 and hi = ref g.deg.(s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(a.(mid)) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < g.deg.(s) && ids.(a.(!lo)) = v then !lo else - !lo - 1

let insert_in_run g s slot pos =
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
  a.(pos) <- slot;
  g.deg.(s) <- d + 1

let remove_from_run g s pos =
  let a = g.adj.(s) and d = g.deg.(s) in
  Array.blit a (pos + 1) a pos (d - pos - 1);
  g.deg.(s) <- d - 1

let has_edge g u v =
  let s = slot_of g u in
  s >= 0 && find_in_run g s v >= 0

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  (* Checked before either endpoint is added, so a rejected edge leaves
     the graph unchanged. *)
  if u < 0 || v < 0 then invalid_arg "Graph.add_edge: negative node id";
  let su = ensure_slot g u in
  let sv = ensure_slot g v in
  let r = find_in_run g su v in
  if r >= 0 then false
  else begin
    insert_in_run g su sv (-r - 1);
    insert_in_run g sv su (-find_in_run g sv u - 1);
    g.m <- g.m + 1;
    true
  end

let remove_edge g u v =
  let su = slot_of g u in
  let r = if su < 0 then -1 else find_in_run g su v in
  if r < 0 then false
  else begin
    let sv = g.adj.(su).(r) in
    remove_from_run g su r;
    remove_from_run g sv (find_in_run g sv u);
    g.m <- g.m - 1;
    true
  end

let remove_node g u =
  let s = slot_of g u in
  if s >= 0 then begin
    let a = g.adj.(s) and d = g.deg.(s) in
    for k = 0 to d - 1 do
      let sv = a.(k) in
      remove_from_run g sv (find_in_run g sv u)
    done;
    g.m <- g.m - d;
    g.deg.(s) <- 0;
    g.ids.(s) <- free_slot;
    Slots.remove g.slots u;
    g.free <- s :: g.free;
    g.n <- g.n - 1
  end

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
  let s = slot_of g u in
  if s < 0 then 0 else g.deg.(s)

let fold_neighbors g u f init =
  let s = slot_of g u in
  if s < 0 then init
  else begin
    let a = g.adj.(s) in
    let acc = ref init in
    for k = 0 to g.deg.(s) - 1 do
      acc := f g.ids.(a.(k)) !acc
    done;
    !acc
  end

let neighbors g u =
  let s = slot_of g u in
  if s < 0 then []
  else begin
    let a = g.adj.(s) in
    let acc = ref [] in
    for k = g.deg.(s) - 1 downto 0 do
      acc := g.ids.(a.(k)) :: !acc
    done;
    !acc
  end

let iter_edges f g =
  for s = 0 to g.used - 1 do
    let u = g.ids.(s) in
    if u <> free_slot then begin
      let a = g.adj.(s) in
      for k = 0 to g.deg.(s) - 1 do
        let v = g.ids.(a.(k)) in
        if u < v then f (Edge.make u v)
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
    slots = Slots.copy g.slots;
    n = g.n;
    m = g.m;
  }

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
      (match slot_of g u with
      | s' when s' = s -> ()
      | -1 -> fail "node %d in slot %d missing from the slot table" u s
      | s' -> fail "node %d maps to slot %d but lives in slot %d" u s' s);
      let a = g.adj.(s) and d = g.deg.(s) in
      if d > Array.length a then fail "slot %d degree %d exceeds run capacity" s d;
      let prev = ref (-1) in
      for k = 0 to min d (Array.length a) - 1 do
        incr half_count;
        let t = a.(k) in
        if t < 0 || t >= g.used || g.ids.(t) = free_slot then
          fail "run of node %d holds slot %d, which is not live" u t
        else begin
          let v = g.ids.(t) in
          if slot_of g v <> t then
            fail "run of node %d holds slot %d, but node %d maps to slot %d" u t v (slot_of g v);
          if v = u then fail "self-loop at %d" u;
          if v <= !prev then fail "unsorted neighbour run at node %d" u;
          prev := v;
          if find_in_run g t u < 0 then fail "asymmetric edge %d--%d" u v
        end
      done
    end
  done;
  List.iter
    (fun s ->
      if s < 0 || s >= g.used || g.ids.(s) <> free_slot then
        fail "free list holds slot %d, which is not free" s)
    g.free;
  if List.length g.free <> g.used - !live then
    fail "free list has %d slots, %d slots are free" (List.length g.free) (g.used - !live);
  if !live <> g.n then fail "node count mismatch: %d live slots, recorded n=%d" !live g.n;
  if Slots.length g.slots <> g.n then
    fail "slot table has %d entries, recorded n=%d" (Slots.length g.slots) g.n;
  if !half_count <> 2 * g.m then
    fail "edge count mismatch: counted %d half-edges, recorded m=%d" !half_count g.m;
  match !err with None -> Ok () | Some s -> Error s

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" (num_nodes g) (num_edges g)

(* ------------------------------------------------------------------ *)
(* Slot view: the store's own arrays, read in place. The slot-space   *)
(* kernels (Traversal, Cuts, the obs monitor) scan runs through it    *)
(* with caller-kept slot-indexed scratch, and the rank-indexed        *)
(* readers (Laplacian, Randwalk) through it in the id order           *)
(* [slots_by_id] gives, so a whole-graph read costs no copy of the    *)
(* graph.                                                             *)

type view = {
  v_ids : int array;
  v_adj : int array array;
  v_deg : int array;
  v_used : int;
  v_nodes : int;
  v_edges : int;
}

let view g =
  { v_ids = g.ids; v_adj = g.adj; v_deg = g.deg; v_used = g.used; v_nodes = g.n; v_edges = g.m }

(* Radix digit width of the slot sort. *)
let digit_bits = 8

(* Order the live slots by id with an LSD radix sort: one stable
   counting pass per 8-bit digit up to the widest id, so no comparison
   sort. The passes ping-pong between [order] and [tmp] and count into
   the caller's [count], so it allocates nothing. *)
(* xlint: hot *)
let slots_by_id g ~order ~tmp ~counts:count =
  let n = g.n and ids = g.ids in
  if Array.length order < n || Array.length tmp < n then
    invalid_arg "Graph.slots_by_id: buffer shorter than the node count";
  if Array.length count < 1 lsl digit_bits then
    invalid_arg "Graph.slots_by_id: counts shorter than 256";
  let k = ref 0 and widest = ref 0 in
  for s = 0 to g.used - 1 do
    let u = ids.(s) in
    if u <> free_slot then begin
      order.(!k) <- s;
      incr k;
      widest := !widest lor u
    end
  done;
  let mask = (1 lsl digit_bits) - 1 in
  let src = ref order and dst = ref tmp and shift = ref 0 and total = ref 0 in
  (* [lsr] by Sys.int_size or more is unspecified: bound the passes. *)
  while !shift < Sys.int_size && !widest lsr !shift > 0 do
    let a = !src and b = !dst and sh = !shift in
    Array.fill count 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let d = (ids.(a.(i)) lsr sh) land mask in
      count.(d) <- count.(d) + 1
    done;
    total := 0;
    for d = 0 to mask do
      let c = count.(d) in
      count.(d) <- !total;
      total := !total + c
    done;
    for i = 0 to n - 1 do
      let s = a.(i) in
      let d = (ids.(s) lsr sh) land mask in
      b.(count.(d)) <- s;
      count.(d) <- count.(d) + 1
    done;
    src := b;
    dst := a;
    shift := sh + digit_bits
  done;
  if !src != order then Array.blit !src 0 order 0 n
