module G = Xheal_graph.Graph

(* Row i is the node of rank i (ascending id), in slot [order.(i)]; its
   columns are its neighbours' ranks, read through the slot-indexed
   [rank] array. A run lists neighbours by ascending id and rank is
   monotone in id, so each row comes out in column order, with the
   diagonal spliced in at its sorted place (a simple graph has no
   self-loop, so it never collides with a neighbour): the order a CSR
   row stores its entries in. An off-diagonal entry is -w_i·w_j, which
   is exactly -1 for the combinatorial Laplacian's unit weights. *)
type t = {
  v : G.view;
  order : int array;  (* rank -> slot *)
  rank : int array;  (* slot -> rank *)
  diag : float array;  (* rank -> L_ii *)
  weight : float array;  (* rank -> w_i *)
}

let make g ~diag ~weight =
  let v = G.view g in
  let n = v.G.v_nodes in
  let order = Array.make n 0 and rank = Array.make v.G.v_used 0 in
  G.slots_by_id g ~order ~tmp:rank ~counts:(Array.make 256 0);
  Array.iteri (fun i s -> rank.(s) <- i) order;
  let deg i = v.G.v_deg.(order.(i)) in
  {
    v;
    order;
    rank;
    diag = Array.init n (fun i -> diag (deg i));
    weight = Array.init n (fun i -> weight (deg i));
  }

let combinatorial g = make g ~diag:float_of_int ~weight:(fun _ -> 1.0)

let normalized g =
  make g
    ~diag:(fun d -> if d = 0 then 0.0 else 1.0)
    ~weight:(fun d -> if d = 0 then 0.0 else 1.0 /. sqrt (float_of_int d))

let ids l = Array.map (fun s -> l.v.G.v_ids.(s)) l.order

(* Calls [f j a_ij] on each stored entry of row [i], in column order. *)
let iter_row l i f =
  let s = l.order.(i) in
  let run = l.v.G.v_adj.(s) and placed = ref false in
  for k = 0 to l.v.G.v_deg.(s) - 1 do
    let j = l.rank.(run.(k)) in
    if (not !placed) && i < j then begin
      f i l.diag.(i);
      placed := true
    end;
    f j (-.(l.weight.(i) *. l.weight.(j)))
  done;
  if not !placed then f i l.diag.(i)

let matvec l x =
  let n = Array.length l.order in
  if Array.length x <> n then invalid_arg "Laplacian.matvec: dimension mismatch";
  Array.init n (fun i ->
      let s = ref 0.0 in
      iter_row l i (fun j a -> s := !s +. (a *. x.(j)));
      !s)

let dense l =
  let n = Array.length l.order in
  let d = Dense.create n in
  for i = 0 to n - 1 do
    iter_row l i (fun j a -> d.(i).(j) <- a)
  done;
  d
