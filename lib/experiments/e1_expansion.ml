module Table = Xheal_metrics.Table
module Expansion = Xheal_metrics.Expansion
module Healer = Xheal_core.Healer

let run ~quick =
  let n = if quick then 48 else 128 in
  let deg = 4 in
  let rows = ref [] in
  let xheal_ok = ref true in
  let attacks =
    [
      ("mixed", fun rng -> Workloads.mixed_attack ~rng);
      ("spectral", fun rng -> Xheal_adversary.Strategy.bottleneck_delete ~rng ());
    ]
  in
  List.iter
    (fun (attack_name, make_attack) ->
      List.iter
        (fun factory ->
          (* Same seeds for every healer: each faces the same adversary
             policy on its own evolving topology. *)
          let rng = Exp.seeded 11 in
          let initial = Workloads.initial ~rng (`Regular (n, deg)) in
          let atk_rng = Exp.seeded 12 in
          let driver =
            Workloads.delete_fraction ~rng:atk_rng ~healer:factory ~initial
              ~strategy:(make_attack atk_rng) ~fraction:0.4
          in
          let healed, reference = Common.measure_pair driver in
          let guarantee = Expansion.guarantee_ok ~healed ~reference in
          if factory.Healer.label |> String.starts_with ~prefix:"xheal" then
            xheal_ok := !xheal_ok && guarantee && healed.Expansion.connected;
          rows :=
            [
              attack_name;
              factory.Healer.label;
              string_of_int healed.Expansion.n;
              Common.f (Expansion.best_h healed);
              Common.f (Expansion.best_h reference);
              Common.f healed.Expansion.lambda2;
              (if healed.Expansion.connected then "yes" else "NO");
              (if guarantee then "yes" else "no");
            ]
            :: !rows)
        (Common.healers_for_comparison ()))
    attacks;
  let table =
    Table.render
      ~header:
        [ "attack"; "healer"; "n_end"; "h(G)"; "h(G')"; "l2(G)"; "connected"; "h>=min(a,h')" ]
      (List.rev !rows)
  in
  {
    Exp.table;
    notes =
      [
        Exp.note_verdict !xheal_ok
          "Xheal keeps h(G) >= min(alpha, h(G')) and stays connected; tree/line repairs do not";
        Printf.sprintf
          "start: random %d-regular, n=%d; each attack deletes 40%% of nodes (spectral = Fiedler-cut targeting)"
          deg n;
      ];
    ok = !xheal_ok;
  }

let exp =
  {
    Exp.id = "E1";
    title = "Expansion preservation under adversarial deletion";
    claim = "h(G_t) >= min(alpha, h(G'_t)) for a constant alpha (Thm 2.3); tree-style repairs collapse";
    run = (fun ~quick -> run ~quick);
  }
