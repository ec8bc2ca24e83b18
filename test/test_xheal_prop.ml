(* Property tests for the engine: across random adversarial sequences and
   engine configurations, the structural invariants, connectivity, the
   Theorem-2.1 degree bound, and the G'-isolation of the driver must all
   hold after every event. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Config = Xheal_core.Config
module Healer = Xheal_core.Healer
module Driver = Xheal_adversary.Driver
module Strategy = Xheal_adversary.Strategy
module Degree = Xheal_metrics.Degree

type outcome = { invariants : bool; connected : bool; degree_ok : bool; gprime_grew : bool }

let run_sequence ~cfg ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let initial = Gen.connected_er ~rng 18 0.2 in
  let driver = Driver.init (Xheal_core.Xheal.factory ~cfg ()) ~rng initial in
  let atk = Random.State.make [| seed + 9999 |] in
  let churn = Strategy.churn ~rng:atk ~insert_prob:0.4 ~attach:3 ~first_id:500 () in
  let all_ok = ref { invariants = true; connected = true; degree_ok = true; gprime_grew = true } in
  let gprime_nodes = ref (Graph.num_nodes (Driver.gprime driver)) in
  let gprime_edges = ref (Graph.num_edges (Driver.gprime driver)) in
  let on_step d ev =
    let inv = (Driver.healer d).Healer.check () = Ok () in
    let conn = Traversal.is_connected (Driver.graph d) in
    let deg =
      (Degree.report ~kappa:(Config.kappa cfg) ~healed:(Driver.graph d)
         ~reference:(Driver.gprime d))
        .Degree.bound_ok
    in
    (* G' is append-only: deletions must not shrink it. *)
    let gn = Graph.num_nodes (Driver.gprime d) and ge = Graph.num_edges (Driver.gprime d) in
    let grew =
      match ev with
      | Xheal_adversary.Event.Delete _ -> gn = !gprime_nodes && ge = !gprime_edges
      | Xheal_adversary.Event.Insert _ -> gn = !gprime_nodes + 1 && ge >= !gprime_edges
    in
    gprime_nodes := gn;
    gprime_edges := ge;
    all_ok :=
      {
        invariants = !all_ok.invariants && inv;
        connected = !all_ok.connected && conn;
        degree_ok = !all_ok.degree_ok && deg;
        gprime_grew = !all_ok.gprime_grew && grew;
      }
  in
  ignore (Driver.run ~on_step driver churn ~steps);
  !all_ok

let prop_of ~name ~cfg field =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed -> field (run_sequence ~cfg ~seed ~steps:50))

let default = Config.default

let small_kappa = Config.with_d 1 Config.default

let no_secondary = { Config.default with Config.secondary_clouds = false }

let no_rebuild = { Config.default with Config.half_rebuild = false }

let tests =
  [
    prop_of ~name:"invariants hold (default cfg)" ~cfg:default (fun o -> o.invariants);
    prop_of ~name:"connectivity preserved (default cfg)" ~cfg:default (fun o -> o.connected);
    prop_of ~name:"degree bound holds (default cfg)" ~cfg:default (fun o -> o.degree_ok);
    prop_of ~name:"G' is append-only" ~cfg:default (fun o -> o.gprime_grew);
    prop_of ~name:"invariants hold (kappa=2)" ~cfg:small_kappa (fun o -> o.invariants);
    prop_of ~name:"connectivity preserved (kappa=2)" ~cfg:small_kappa (fun o -> o.connected);
    prop_of ~name:"degree bound holds (kappa=2)" ~cfg:small_kappa (fun o -> o.degree_ok);
    prop_of ~name:"invariants hold (always-combine)" ~cfg:no_secondary (fun o -> o.invariants);
    prop_of ~name:"connectivity preserved (always-combine)" ~cfg:no_secondary (fun o -> o.connected);
    prop_of ~name:"invariants hold (no half-rebuild)" ~cfg:no_rebuild (fun o -> o.invariants);
    prop_of ~name:"connectivity preserved (no half-rebuild)" ~cfg:no_rebuild (fun o -> o.connected);
  ]

(* A deeper pure-deletion grind on a denser start, fewer repetitions. *)
let prop_grind =
  QCheck.Test.make ~name:"pure-deletion grind to 4 nodes stays sound" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let initial = Gen.connected_er ~rng 30 0.15 in
      let driver = Driver.init (Xheal_core.Xheal.factory ()) ~rng initial in
      let atk = Random.State.make [| seed + 1 |] in
      let strat = Strategy.random_delete ~rng:atk () in
      let sound = ref true in
      let on_step d _ =
        sound :=
          !sound
          && (Driver.healer d).Healer.check () = Ok ()
          && Traversal.is_connected (Driver.graph d)
      in
      ignore (Driver.run ~on_step driver strat ~steps:26);
      !sound)

(* Slot-layout independence as a property: the same seed graph built in
   the opposite order (so every iter_*/fold_* order differs, in the
   engine's own graphs too) under the same churn schedule must drive
   the adversary to identical events and the healer to an identical
   healed graph. Any iteration-order leak into engine decisions breaks
   this long before it breaks a single run. *)
let prop_layout_independent =
  QCheck.Test.make ~name:"healed graph is slot-layout-independent" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run relayout =
        let rng = Random.State.make [| seed |] in
        let initial = relayout (Gen.connected_er ~rng 18 0.2) in
        let driver = Driver.init (Xheal_core.Xheal.factory ()) ~rng initial in
        let atk = Random.State.make [| seed + 77 |] in
        let churn = Strategy.churn ~rng:atk ~insert_prob:0.4 ~attach:3 ~first_id:500 () in
        ignore (Driver.run driver churn ~steps:30);
        driver
      in
      let a = run Fun.id and b = run Test_graph.rebuilt_in_reverse in
      Test_graph.slot_order (Driver.graph a) <> Test_graph.slot_order (Driver.graph b)
      && Graph.equal (Driver.graph a) (Driver.graph b)
      && Graph.equal (Driver.gprime a) (Driver.gprime b))

let suite =
  [
    ( "xheal-properties",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        (tests @ [ prop_grind; prop_layout_independent ]) );
  ]
