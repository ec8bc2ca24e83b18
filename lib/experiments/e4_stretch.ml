module Table = Xheal_metrics.Table
module Stretch = Xheal_metrics.Stretch
module Strategy = Xheal_adversary.Strategy
module Driver = Xheal_adversary.Driver
module Healer = Xheal_core.Healer

let run ~quick =
  let shapes =
    if quick then [ ("path", `Path 32); ("grid", `Grid (6, 6)) ]
    else [ ("path", `Path 64); ("grid", `Grid (8, 8)); ("er", `Er (64, 0.08)) ]
  in
  let healers = [ Xheal_baselines.Baselines.xheal (); Xheal_baselines.Baselines.tree_heal ] in
  let ok = ref true in
  let rows =
    List.concat_map
      (fun (shape_name, shape) ->
        List.map
          (fun factory ->
            let rng = Exp.seeded 51 in
            let initial = Workloads.initial ~rng shape in
            let n0 = Xheal_graph.Graph.num_nodes initial in
            let atk = Exp.seeded 52 in
            let driver =
              Workloads.delete_fraction ~rng:atk ~healer:factory ~initial
                ~strategy:(Strategy.random_delete ~rng:atk ()) ~fraction:0.3
            in
            let r =
              Stretch.report ~healed:(Driver.graph driver) ~reference:(Driver.gprime driver)
            in
            let budget = (2.0 *. Common.log2f n0) +. 2.0 in
            if String.starts_with ~prefix:"xheal" factory.Healer.label then
              ok := !ok && r.Stretch.max_stretch <= budget;
            [
              shape_name;
              factory.Healer.label;
              string_of_int n0;
              Table.fmt_ratio r.Stretch.max_stretch;
              Common.f ~d:1 (Common.log2f n0);
              string_of_int r.Stretch.pairs_checked;
            ])
          healers)
      shapes
  in
  let table =
    Table.render ~header:[ "shape"; "healer"; "n0"; "max stretch"; "log2 n"; "pairs" ] rows
  in
  {
    Exp.table;
    notes =
      [
        Exp.note_verdict !ok "Xheal's worst stretch stayed within 2*log2(n)+2 on every shape";
        "workload: 30% uniform random deletions; stretch compares all surviving pairs vs G' distances";
      ];
    ok = !ok;
  }

let exp =
  {
    Exp.id = "E4";
    title = "Network stretch";
    claim = "dist_{G_t}(u,v) <= O(log n) * dist_{G'_t}(u,v) for all surviving pairs (Thm 2.2)";
    run = (fun ~quick -> run ~quick);
  }
