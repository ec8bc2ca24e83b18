module Cloud = Xheal_core.Cloud
module Registry = Xheal_core.Registry

let rng () = Random.State.make [| 23 |]

let mk_cloud reg kind nodes =
  let id = Registry.fresh_id reg in
  let c = Cloud.make ~rng:(rng ()) ~id ~kind ~d:2 ~half_rebuild:true nodes in
  Registry.add_cloud reg c;
  c

let check reg = match Registry.check reg with Ok () -> () | Error e -> Alcotest.failf "registry: %s" e

let test_membership_index () =
  let reg = Registry.create () in
  let c1 = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let c2 = mk_cloud reg Cloud.Primary [ 2; 3 ] in
  Alcotest.(check int) "clouds" 2 (Registry.num_clouds reg);
  Alcotest.(check (list int)) "clouds of 2"
    [ Cloud.id c1; Cloud.id c2 ]
    (List.map Cloud.id (Registry.clouds_of reg 2));
  Alcotest.(check (list int)) "clouds of 3" [ Cloud.id c2 ] (List.map Cloud.id (Registry.clouds_of reg 3));
  Alcotest.(check (list int)) "clouds of stranger" [] (List.map Cloud.id (Registry.clouds_of reg 99));
  check reg

let test_bridge_duty () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 3; 4 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1; 3 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:3 ~primary:(Cloud.id p2);
  check reg;
  Alcotest.(check bool) "1 not free" false (Registry.is_free reg 1);
  Alcotest.(check bool) "0 free" true (Registry.is_free reg 0);
  Alcotest.(check (list int)) "free members of p1" [ 0; 2 ] (Registry.free_members reg p1);
  Alcotest.(check (option int)) "duty of 1" (Some (Cloud.id s)) (Registry.duty_of reg 1);
  Alcotest.(check (list (pair int int)))
    "bridges of s"
    [ (1, Cloud.id p1); (3, Cloud.id p2) ]
    (Registry.bridges_of_secondary reg (Cloud.id s));
  Alcotest.(check (option int)) "assoc lookup" (Some (Cloud.id p2))
    (Registry.primary_of_bridge reg ~secondary:(Cloud.id s) ~bridge:3);
  Alcotest.check_raises "double duty rejected"
    (Invalid_argument "Registry.link: node 1 already has bridge duty") (fun () ->
      Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1))

let test_unlink () =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p);
  Registry.unlink_bridge reg ~secondary:(Cloud.id s) ~bridge:1;
  Alcotest.(check bool) "free again" true (Registry.is_free reg 1);
  Alcotest.(check (list (pair int int))) "no bridges" []
    (Registry.bridges_of_secondary reg (Cloud.id s))

let test_retarget () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 0; 1; 2; 3 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.retarget_primary reg ~old_primary:(Cloud.id p1) ~new_primary:(Cloud.id p2);
  Alcotest.(check (option int)) "assoc moved" (Some (Cloud.id p2))
    (Registry.primary_of_bridge reg ~secondary:(Cloud.id s) ~bridge:1);
  Alcotest.(check (list (pair int int)))
    "reverse view"
    [ (Cloud.id s, 1) ]
    (Registry.secondaries_of_primary reg (Cloud.id p2));
  Registry.remove_cloud reg (Cloud.id p1);
  check reg

(* Node 1 sits in both primaries but bridges only for p1: retargeting
   p2 walks node 1 and must leave p1's link alone. *)
let test_retarget_skips_foreign_duty () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 1; 2 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  let d = mk_cloud reg Cloud.Primary [ 1; 2 ] in
  Registry.retarget_primary reg ~old_primary:(Cloud.id p2) ~new_primary:(Cloud.id d);
  Registry.remove_cloud reg (Cloud.id p2);
  Alcotest.(check (option int)) "link still names p1" (Some (Cloud.id p1))
    (Registry.primary_of_bridge reg ~secondary:(Cloud.id s) ~bridge:1);
  Alcotest.(check (list (pair int int)))
    "p1 keeps its secondary"
    [ (Cloud.id s, 1) ]
    (Registry.secondaries_of_primary reg (Cloud.id p1));
  Alcotest.(check (list (pair int int))) "combined cloud has none" []
    (Registry.secondaries_of_primary reg (Cloud.id d));
  Alcotest.(check (list (pair int int))) "unregistered id" []
    (Registry.secondaries_of_primary reg (Cloud.id p2));
  check reg

(* Combine is billed by the size of the clouds it merges, so retargeting
   a 3-member primary and listing its secondaries must not allocate more
   when the registry holds more unrelated links. *)
let retarget_minor_words ~unrelated =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p);
  let d = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  for i = 1 to unrelated do
    let u = 10 * i in
    let q = mk_cloud reg Cloud.Primary [ u; u + 1 ] in
    let s = mk_cloud reg Cloud.Secondary [ u ] in
    Registry.link reg ~secondary:(Cloud.id s) ~bridge:u ~primary:(Cloud.id q)
  done;
  let before = Gc.minor_words () in
  Registry.retarget_primary reg ~old_primary:(Cloud.id p) ~new_primary:(Cloud.id d);
  let moved = Registry.secondaries_of_primary reg (Cloud.id d) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list (pair int int))) "link moved" [ (Cloud.id s, 1) ] moved;
  words

let test_retarget_is_local () =
  let few = retarget_minor_words ~unrelated:10 in
  let many = retarget_minor_words ~unrelated:10_000 in
  Alcotest.(check (float 0.)) "minor words independent of registry size" few many

let test_remove_node_clears_duty () =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p);
  Registry.remove_node reg 1;
  Alcotest.(check (list (pair int int))) "assoc cleared" []
    (Registry.bridges_of_secondary reg (Cloud.id s));
  Alcotest.(check (list int)) "memberships cleared" []
    (List.map Cloud.id (Registry.clouds_of reg 1))

let test_unlink_all () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 2; 3 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1; 2 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:2 ~primary:(Cloud.id p2);
  Registry.unlink_all reg ~secondary:(Cloud.id s);
  Alcotest.(check bool) "all free" true (Registry.is_free reg 1 && Registry.is_free reg 2)

let test_fresh_ids_distinct () =
  let reg = Registry.create () in
  let a = Registry.fresh_id reg and b = Registry.fresh_id reg in
  Alcotest.(check bool) "monotone" true (b > a)

(* Reference for [Registry.secondaries_of_primary]: scan every
   secondary's bridge records for the ones naming [primary]. *)
let scan_secondaries_of_primary reg primary =
  List.sort compare
    (List.concat_map
       (fun c ->
         if Cloud.kind c <> Cloud.Secondary then []
         else
           List.filter_map
             (fun (b, p) -> if p = primary then Some (Cloud.id c, b) else None)
             (Registry.bridges_of_secondary reg (Cloud.id c)))
       (Registry.clouds reg))

(* Reference for [Registry.clouds_of]: the ids of the registered clouds
   that hold [u], found by a scan of every cloud, ascending. *)
let scan_clouds_of reg u =
  List.filter_map (fun c -> if Cloud.mem c u then Some (Cloud.id c) else None) (Registry.clouds reg)

(* Random engine-style steps over nodes [0, n): each one updates the
   registry and the cloud member sets together, as the engine does, so
   [Registry.check] must hold after every step. *)
let random_walk ~seed ~steps =
  let r = Random.State.make [| seed |] in
  let n = 14 in
  let reg = Registry.create () in
  let last_id = ref (-1) in
  let mk kind nodes =
    let c = mk_cloud reg kind nodes in
    last_id := Cloud.id c;
    c
  in
  let alive = Array.make n true in
  let live () = List.filter (fun u -> alive.(u)) (List.init n Fun.id) in
  let pick = function [] -> None | l -> Some (List.nth l (Random.State.int r (List.length l))) in
  let of_kind k = List.filter (fun c -> Cloud.kind c = k) (Registry.clouds reg) in
  let new_primary () =
    match List.filter (fun _ -> Random.State.int r 4 = 0) (live ()) with
    | [] -> ()
    | nodes -> ignore (mk Cloud.Primary nodes)
  in
  let step () =
    match Random.State.int r 6 with
    | 0 -> new_primary ()
    | 1 -> (
      (* Link a free member of a primary into a new or existing secondary. *)
      match pick (of_kind Cloud.Primary) with
      | None -> ()
      | Some p -> (
        match pick (Registry.free_members reg p) with
        | None -> ()
        | Some u ->
          let sec =
            match pick (of_kind Cloud.Secondary) with
            | Some s when Random.State.bool r ->
              Cloud.add_member ~rng:(rng ()) s u;
              Registry.note_membership reg ~node:u ~cloud:(Cloud.id s);
              s
            | _ -> mk Cloud.Secondary [ u ]
          in
          Registry.link reg ~secondary:(Cloud.id sec) ~bridge:u ~primary:(Cloud.id p)))
    | 2 -> (
      (* Unlink one bridge and drop it from its secondary, which is
         re-registered so the node index forgets the bridge. *)
      match pick (List.filter (fun u -> not (Registry.is_free reg u)) (live ())) with
      | None -> ()
      | Some b ->
        let s = Registry.find_exn reg (Option.get (Registry.duty_of reg b)) in
        Registry.unlink_bridge reg ~secondary:(Cloud.id s) ~bridge:b;
        Registry.remove_cloud reg (Cloud.id s);
        ignore (Cloud.remove_member ~rng:(rng ()) s b);
        if Cloud.size s > 0 then Registry.add_cloud reg s)
    | 3 -> (
      match pick (of_kind Cloud.Secondary) with
      | None -> ()
      | Some s ->
        Registry.unlink_all reg ~secondary:(Cloud.id s);
        Registry.remove_cloud reg (Cloud.id s))
    | 4 -> (
      match pick (live ()) with
      | None -> ()
      | Some u ->
        let cs = Registry.clouds_of reg u in
        Registry.remove_node reg u;
        alive.(u) <- false;
        List.iter
          (fun c ->
            ignore (Cloud.remove_member ~rng:(rng ()) c u);
            if Cloud.size c = 0 then begin
              if Cloud.kind c = Cloud.Secondary then
                Registry.unlink_all reg ~secondary:(Cloud.id c);
              Registry.remove_cloud reg (Cloud.id c)
            end)
          cs)
    | _ -> (
      (* Combine: a fresh primary over the union of up to three primaries
         takes over their links. *)
      let prims = List.filter (fun _ -> Random.State.int r 3 = 0) (of_kind Cloud.Primary) in
      let prims = List.filteri (fun i _ -> i < 3) prims in
      match List.sort_uniq Int.compare (List.concat_map Cloud.members prims) with
      | [] -> ()
      | members ->
        let d = mk Cloud.Primary members in
        List.iter
          (fun c ->
            Registry.retarget_primary reg ~old_primary:(Cloud.id c) ~new_primary:(Cloud.id d);
            Registry.remove_cloud reg (Cloud.id c))
          prims)
  in
  for _ = 1 to 4 do new_primary () done;
  let ok = ref true in
  for _ = 1 to steps do
    if !ok then begin
      step ();
      ok :=
        Registry.check reg = Ok ()
        && List.for_all
             (fun id ->
               Registry.secondaries_of_primary reg id = scan_secondaries_of_primary reg id)
             (List.init (!last_id + 1) Fun.id)
        && List.for_all
             (fun u -> List.map Cloud.id (Registry.clouds_of reg u) = scan_clouds_of reg u)
             (List.init n Fun.id)
    end
  done;
  !ok

let prop_member_walk_matches_scan =
  QCheck.Test.make ~name:"member walk matches the full association scan" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed -> random_walk ~seed ~steps:60)

let suite =
  [
    ( "registry",
      [
        Alcotest.test_case "membership index" `Quick test_membership_index;
        Alcotest.test_case "bridge duty" `Quick test_bridge_duty;
        Alcotest.test_case "unlink" `Quick test_unlink;
        Alcotest.test_case "retarget on combine" `Quick test_retarget;
        Alcotest.test_case "retarget skips foreign duty" `Quick test_retarget_skips_foreign_duty;
        Alcotest.test_case "retarget is local" `Quick test_retarget_is_local;
        Alcotest.test_case "remove node clears duty" `Quick test_remove_node_clears_duty;
        Alcotest.test_case "unlink_all" `Quick test_unlink_all;
        Alcotest.test_case "fresh ids" `Quick test_fresh_ids_distinct;
        QCheck_alcotest.to_alcotest prop_member_walk_matches_scan;
      ] );
  ]
