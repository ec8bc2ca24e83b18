module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal

type report = {
  max_stretch : float;
  worst_pair : (int * int) option;
  pairs_checked : int;
  sources_used : int;
}

(* Sources a report runs its BFS from; a larger graph gets a seeded
   sample of this many. *)
let max_sources = 64

let sample_sources nodes k =
  let a = Array.of_list nodes in
  let n = Array.length a in
  if n <= k then nodes
  else begin
    let rng = Random.State.make [| 0xbf5 |] in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list (Array.sub a 0 k)
  end

let report ~healed ~reference =
  let survivors = List.filter (Graph.has_node reference) (Graph.nodes healed) in
  let sources = sample_sources survivors max_sources in
  let best = ref 1.0 and pair = ref None and pairs = ref 0 in
  List.iter
    (fun s ->
      let dh = Traversal.bfs_distances healed s in
      let dr = Traversal.bfs_distances reference s in
      List.iter
        (fun v ->
          if v <> s then
            match Hashtbl.find_opt dr v with
            | None | Some 0 -> ()
            | Some d_ref -> (
              incr pairs;
              match Hashtbl.find_opt dh v with
              | None ->
                best := infinity;
                pair := Some (s, v)
              | Some d_healed ->
                let ratio = float_of_int d_healed /. float_of_int d_ref in
                if ratio > !best then begin
                  best := ratio;
                  pair := Some (s, v)
                end))
        survivors)
    sources;
  { max_stretch = !best; worst_pair = !pair; pairs_checked = !pairs; sources_used = List.length sources }
