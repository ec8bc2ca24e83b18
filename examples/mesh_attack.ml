(* Wireless mesh under targeted attack. A rows x cols mesh (the paper's
   reconfigurable-network example) is attacked at its articulation points
   and hubs — the most damaging legal moves for an omniscient adversary.
   We verify the healed mesh never partitions and that routes stay short
   (the stretch guarantee), and dump DOT files for visual inspection.

   Run with: dune exec examples/mesh_attack.exe *)

module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Generators = Xheal_graph.Generators
module Dot = Xheal_graph.Dot
module Driver = Xheal_adversary.Driver
module Strategy = Xheal_adversary.Strategy
module Stretch = Xheal_metrics.Stretch
module Table = Xheal_metrics.Table

let () =
  let rows, cols = (8, 8) in
  let mesh = Generators.grid rows cols in
  let rng = Random.State.make [| 4242 |] in
  let driver = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng mesh in
  let atk = Random.State.make [| 4343 |] in
  let strategy = Strategy.cutpoint_delete ~rng:atk () in
  let out = ref [] in
  let record step =
    let g = Driver.graph driver in
    let st = Stretch.report ~healed:g ~reference:(Driver.gprime driver) in
    let diam = match Traversal.diameter g with Some d -> string_of_int d | None -> "inf" in
    out :=
      [ string_of_int step;
        string_of_int (Graph.num_nodes g);
        string_of_int (Traversal.num_components g);
        diam;
        Table.fmt_ratio st.Stretch.max_stretch ]
      :: !out
  in
  record 0;
  for batch = 1 to 5 do
    ignore (Driver.run driver strategy ~steps:5);
    record (batch * 5)
  done;
  print_string
    (Table.render ~header:[ "deletions"; "nodes"; "components"; "diameter"; "max stretch" ]
       (List.rev !out));
  let g = Driver.graph driver in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "mesh_healed.dot" in
  Dot.write_file path g;
  Printf.printf "healed mesh written to %s (%d nodes, %d edges)\n" path (Graph.num_nodes g)
    (Graph.num_edges g);
  Printf.printf "mesh stayed connected: %b\n" (Traversal.is_connected g)
