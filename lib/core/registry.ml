module Int_table = Xheal_graph.Int_table

type t = {
  clouds : Cloud.t Int_table.t;
  node_clouds : int list Int_table.t; (* node -> its clouds' ids, ascending *)
  bridge_duty : int Int_table.t; (* node -> secondary id *)
  sec_assoc : int Int_table.t Int_table.t; (* secondary -> bridge -> primary *)
  mutable next_id : int;
}

let create () =
  {
    clouds = Int_table.create 64;
    node_clouds = Int_table.create 64;
    bridge_duty = Int_table.create 16;
    sec_assoc = Int_table.create 16;
    next_id = 0;
  }

(* Lexicographic order on int pairs, replacing polymorphic compare. *)
let compare_int_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let ids_of t node = match Int_table.find t.node_clouds node with ids -> ids | exception Not_found -> []

(* [id] into an ascending id list, once. Fresh ids are the largest, so
   the common case walks the whole (short) list. *)
let rec insert_id (id : int) = function
  | [] -> [ id ]
  | x :: rest as ids -> if id < x then id :: ids else if id = x then ids else x :: insert_id id rest

let note_membership t ~node ~cloud =
  let ids = ids_of t node in
  let ids' = insert_id cloud ids in
  if ids' != ids then Int_table.replace t.node_clouds node ids'

let forget_membership t ~node ~cloud =
  match List.filter (fun id -> id <> cloud) (ids_of t node) with
  | [] -> Int_table.remove t.node_clouds node
  | ids -> Int_table.replace t.node_clouds node ids

let add_cloud t c =
  let id = Cloud.id c in
  if Int_table.mem t.clouds id then invalid_arg "Registry.add_cloud: duplicate id";
  Int_table.replace t.clouds id c;
  Cloud.iter_members c (fun u -> note_membership t ~node:u ~cloud:id)

let remove_cloud t id =
  match Int_table.find_opt t.clouds id with
  | None -> ()
  | Some c ->
    Cloud.iter_members c (fun u -> forget_membership t ~node:u ~cloud:id);
    Int_table.remove t.clouds id

let find t id = Int_table.find_opt t.clouds id

let find_exn t id =
  match Int_table.find t.clouds id with
  | c -> c
  | exception Not_found -> invalid_arg (Printf.sprintf "Registry.find_exn: no cloud %d" id)

let clouds t =
  List.sort
    (fun a b -> Int.compare (Cloud.id a) (Cloud.id b))
    (Int_table.fold (fun _ c acc -> c :: acc) t.clouds [])

let num_clouds t = Int_table.length t.clouds

let clouds_of t node = List.map (find_exn t) (ids_of t node)

let is_free t node = not (Int_table.mem t.bridge_duty node)

let free_members t c = List.filter (is_free t) (Cloud.members c)

let duty_of t node = Int_table.find_opt t.bridge_duty node

let assoc_table t secondary =
  match Int_table.find_opt t.sec_assoc secondary with
  | Some tbl -> tbl
  | None ->
    let tbl = Int_table.create 4 in
    Int_table.replace t.sec_assoc secondary tbl;
    tbl

let link t ~secondary ~bridge ~primary =
  if Int_table.mem t.bridge_duty bridge then
    invalid_arg (Printf.sprintf "Registry.link: node %d already has bridge duty" bridge);
  Int_table.replace t.bridge_duty bridge secondary;
  Int_table.replace (assoc_table t secondary) bridge primary

let unlink_bridge t ~secondary ~bridge =
  (match Int_table.find_opt t.sec_assoc secondary with
  | None -> ()
  | Some tbl -> Int_table.remove tbl bridge);
  if Int_table.find_opt t.bridge_duty bridge = Some secondary then Int_table.remove t.bridge_duty bridge

let bridges_of_secondary t secondary =
  match Int_table.find_opt t.sec_assoc secondary with
  | None -> []
  | Some tbl -> List.sort compare_int_pair (Int_table.fold (fun b p acc -> (b, p) :: acc) tbl [])

let unlink_all t ~secondary =
  List.iter (fun (b, _) -> unlink_bridge t ~secondary ~bridge:b) (bridges_of_secondary t secondary);
  Int_table.remove t.sec_assoc secondary

let primary_of_bridge t ~secondary ~bridge =
  match Int_table.find_opt t.sec_assoc secondary with
  | None -> None
  | Some tbl -> Int_table.find_opt tbl bridge

(* A bridge is always a member of the primary it represents ({!check}
   enforces it), so a primary's links are found among its own members. *)
let iter_bridges t primary f =
  match find t primary with
  | None -> ()
  | Some c ->
    Cloud.iter_members c (fun b ->
        match Int_table.find_opt t.bridge_duty b with
        | Some s when primary_of_bridge t ~secondary:s ~bridge:b = Some primary -> f s b
        | _ -> ())

let secondaries_of_primary t primary =
  let acc = ref [] in
  iter_bridges t primary (fun s b -> acc := (s, b) :: !acc);
  List.sort compare_int_pair !acc

let retarget_primary t ~old_primary ~new_primary =
  iter_bridges t old_primary (fun s b -> Int_table.replace (assoc_table t s) b new_primary)

let remove_node t node =
  (match duty_of t node with
  | Some secondary -> unlink_bridge t ~secondary ~bridge:node
  | None -> ());
  Int_table.remove t.node_clouds node

let check t =
  let err = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !err = None then err := Some s) fmt in
  (* The invariant sweeps below are annotated order-independent: visit
     order only picks which of several violations is reported first;
     whether the result is Ok or Error does not depend on it. *)
  (* Membership lists agree with cloud member sets. *)
  (* xlint: order-independent *)
  Int_table.iter
    (fun id c ->
      if Cloud.id c <> id then fail "cloud %d registered under id %d" (Cloud.id c) id;
      Cloud.iter_members c (fun u ->
          if not (List.mem id (ids_of t u)) then
            fail "member %d of cloud %d missing from node index" u id))
    t.clouds;
  (* xlint: order-independent *)
  Int_table.iter
    (fun u ids ->
      if ids = [] || List.sort_uniq Int.compare ids <> ids then
        fail "node index of %d is empty or not ascending" u;
      List.iter
        (fun id ->
          match find t id with
          | Some c -> if not (Cloud.mem c u) then fail "node index claims %d in cloud %d" u id
          | None -> fail "node index references dead cloud %d" id)
        ids)
    t.node_clouds;
  (* Every secondary cloud's members are exactly its bridges, each
     associated with a live primary that contains it. *)
  (* xlint: order-independent *)
  Int_table.iter
    (fun id c ->
      match Cloud.kind c with
      | Cloud.Primary -> ()
      | Cloud.Secondary ->
        let recs = bridges_of_secondary t id in
        if List.map fst recs <> Cloud.members c then
          fail "secondary %d: members and bridge records disagree" id;
        List.iter
          (fun (b, p) ->
            if Int_table.find_opt t.bridge_duty b <> Some id then
              fail "bridge %d of secondary %d lacks duty record" b id;
            match find t p with
            | Some pc ->
              if Cloud.kind pc <> Cloud.Primary then
                fail "secondary %d associates bridge %d with non-primary %d" id b p;
              if not (Cloud.mem pc b) then
                fail "bridge %d of secondary %d is not a member of primary %d" b id p
            | None -> fail "secondary %d references dead primary %d" id p)
          recs)
    t.clouds;
  (* Duties point at live secondaries that contain the node. *)
  (* xlint: order-independent *)
  Int_table.iter
    (fun b s ->
      match find t s with
      | Some c when Cloud.kind c = Cloud.Secondary ->
        if not (Cloud.mem c b) then fail "duty of %d points at secondary %d lacking it" b s
      | _ -> fail "duty of %d points at missing/non-secondary cloud %d" b s)
    t.bridge_duty;
  (* Association tables only reference live secondary clouds. *)
  (* xlint: order-independent *)
  Int_table.iter
    (fun s tbl ->
      if Int_table.length tbl > 0 then
        match find t s with
        | Some c when Cloud.kind c = Cloud.Secondary -> ()
        | _ -> fail "associations recorded for missing/non-secondary cloud %d" s)
    t.sec_assoc;
  match !err with None -> Ok () | Some m -> Error m
