module Edge = Xheal_graph.Edge
module Hgraph = Xheal_expander.Hgraph
module Sampler = Xheal_expander.Sampler

type kind = Primary | Secondary

let kind_to_string = function Primary -> "primary" | Secondary -> "secondary"

type structure = Clique | Expander of Hgraph.t

type t = {
  id : int;
  kind : kind;
  d : int;
  half_rebuild : bool;
  members : Sampler.t;
  mutable structure : structure;
  mutable built_size : int;
  mutable current : Edge.Set.t;
  mutable leader : int option;
  mutable vice : int option;
}

let id t = t.id

let kind t = t.kind

let kappa t = 2 * t.d

let size t = Sampler.size t.members

let mem t u = Sampler.mem t.members u

let members t = Sampler.to_list t.members

let iter_members t f = Sampler.iter f t.members

let structure_kind t = match t.structure with Clique -> `Clique | Expander _ -> `Expander

let leader t = t.leader

let vice t = t.vice

let clique_threshold t = kappa t + 1

let refresh_leadership ~rng t =
  (match t.leader with
  | Some l when mem t l -> ()
  | _ -> t.leader <- Sampler.sample ~rng t.members);
  match t.vice with
  | Some w when mem t w && t.leader <> Some w -> ()
  | _ -> (
    t.vice <-
      (match t.leader with
      | None -> None
      | Some l -> Sampler.sample_other ~rng t.members l))

let build_structure ~rng t =
  let ms = members t in
  if size t <= clique_threshold t then t.structure <- Clique
  else t.structure <- Expander (Hgraph.create ~rng ~d:t.d ms);
  t.built_size <- size t

let make ~rng ~id ~kind ~d ~half_rebuild nodes =
  if d < 1 then invalid_arg "Cloud.make: need d >= 1";
  let members = Sampler.of_list nodes in
  if Sampler.size members <> List.length nodes then invalid_arg "Cloud.make: duplicate nodes";
  let t =
    {
      id;
      kind;
      d;
      half_rebuild;
      members;
      structure = Clique;
      built_size = 0;
      current = Edge.Set.empty;
      leader = None;
      vice = None;
    }
  in
  build_structure ~rng t;
  refresh_leadership ~rng t;
  t

let desired_edges t =
  match t.structure with
  | Expander h -> Edge.Set.of_list (Hgraph.edges h)
  | Clique ->
    let ms = members t in
    List.fold_left
      (fun acc u ->
        List.fold_left (fun acc v -> if u < v then Edge.Set.add (Edge.make u v) acc else acc) acc ms)
      Edge.Set.empty ms

let current t = t.current

let set_current t s = t.current <- s

let purge_node_from_current t u =
  t.current <- Edge.Set.filter (fun e -> not (Edge.mem e u)) t.current

let add_member ~rng t u =
  if not (Sampler.add t.members u) then invalid_arg "Cloud.add_member: already a member";
  (match t.structure with
  | Clique -> if size t > clique_threshold t then build_structure ~rng t
  | Expander h -> Hgraph.insert ~rng h u);
  refresh_leadership ~rng t

let remove_member ~rng t u =
  if not (Sampler.remove t.members u) then false
  else begin
    let was_leader = t.leader = Some u in
    (match t.structure with
    | Clique -> ()
    | Expander h ->
      if size t <= clique_threshold t then build_structure ~rng t
      else begin
        Hgraph.delete h u;
        if t.half_rebuild && 2 * size t < t.built_size then begin
          Hgraph.rebuild ~rng h;
          t.built_size <- size t
        end
      end);
    if was_leader then t.leader <- None;
    if t.vice = Some u then t.vice <- None;
    refresh_leadership ~rng t;
    was_leader
  end


let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = size t in
  let leadership_ok =
    match (t.leader, t.vice, n) with
    | None, None, 0 -> true
    | Some l, None, 1 -> mem t l
    | Some l, Some w, _ -> n >= 2 && mem t l && mem t w && l <> w
    | _ -> false
  in
  if not leadership_ok then fail "cloud %d: bad leadership for size %d" t.id n
  else
    match t.structure with
    | Clique ->
      if n > clique_threshold t then
        fail "cloud %d: clique of size %d exceeds threshold %d" t.id n (clique_threshold t)
      else Ok ()
    | Expander h ->
      if Hgraph.members h <> members t then fail "cloud %d: H-graph member drift" t.id
      else (
        match Hgraph.check h with
        | Ok () -> Ok ()
        | Error e -> fail "cloud %d: %s" t.id e)
