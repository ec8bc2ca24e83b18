let all =
  [
    E1_expansion.exp;
    E2_star.exp;
    E3_degree.exp;
    E4_stretch.exp;
    E5_spectral.exp;
    E6_rounds.exp;
    E7_messages.exp;
    E8_hgraph.exp;
    E9_survival.exp;
    E10_timeline.exp;
    E11_routing.exp;
    E12_faults.exp;
    E13_async.exp;
    E14_byzantine.exp;
    E15_repricing.exp;
    E17_detector.exp;
    A1_secondary.exp;
    A2_rebuild.exp;
    A3_batch.exp;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.Exp.id = id) all

(* Every id is resolved before anything runs, so a mistyped id fails
   the call instead of silently shrinking the selection. *)
let lookup id =
  match find id with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.run_all: unknown experiment %S (valid: %s)" id
         (String.concat ", " (List.map (fun e -> e.Exp.id) all)))

let run_all ?(quick = false) ?ids ~out () =
  let selected = match ids with None -> all | Some ids -> List.map lookup ids in
  List.fold_left
    (fun acc e ->
      let r = e.Exp.run ~quick in
      out (Exp.render e r);
      acc && r.Exp.ok)
    true selected
