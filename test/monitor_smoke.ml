(* Fast smoke for the invariant observatory, behind the @monitor-smoke
   alias (a dependency of the default runtest): one tiny seeded run with
   monitors on, validating the structured event log line-by-line (every
   line parses and carries the event-kind header), the
   "xheal-monitor/1" report shape, byte-determinism of both exports,
   and passivity (same healed topology and message totals as a bare
   engine on the same seed). The full-strength versions live in
   test_monitor.ml. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Monitor = Xheal_obs.Monitor
module Jsonw = Xheal_obs.Jsonw

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("monitor-smoke: " ^ s); exit 1) fmt

let run ~monitored seed =
  let rng = Random.State.make [| seed |] in
  let g = Gen.random_regular ~rng 24 4 in
  let monitor =
    if monitored then
      Some
        (Monitor.create
           ~config:{ Monitor.default_config with Monitor.cadence = 1; seed } g)
    else None
  in
  let eng = Xheal.create ?monitor ~rng g in
  let atk = Random.State.make [| seed + 1 |] in
  for _ = 1 to 6 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
  done;
  (Xheal.graph eng, (Xheal.totals eng).Cost.total_messages, monitor)

let check_log m =
  let log = Monitor.to_jsonl m in
  let lines = String.split_on_char '\n' (String.trim log) in
  if List.length lines < 6 then die "event log too small (%d lines)" (List.length lines);
  List.iter
    (fun line ->
      match Jsonw.of_string line with
      | Error e -> die "unparseable log line: %s (%s)" line e
      | Ok json -> (
        (match Jsonw.member "event" json with
        | Some (Jsonw.String "sample") ->
          if Jsonw.member "value" json = None then die "sample without value: %s" line
        | Some (Jsonw.String "violation") ->
          List.iter
            (fun k ->
              if Jsonw.member k json = None then die "violation misses %S: %s" k line)
            [ "node"; "bound"; "measured"; "detail" ]
        | _ -> die "bad event kind: %s" line);
        List.iter
          (fun k -> if Jsonw.member k json = None then die "line misses %S: %s" k line)
          [ "guarantee"; "seq"; "time" ]))
    lines;
  log

let check_report m =
  let report = Monitor.report_json m in
  (match Jsonw.member "schema" report with
  | Some (Jsonw.String "xheal-monitor/1") -> ()
  | _ -> die "report schema tag missing");
  List.iter
    (fun k -> if Jsonw.member k report = None then die "report misses %S" k)
    [ "repairs"; "checks"; "events"; "violations"; "by_guarantee"; "samples" ];
  (match Jsonw.member "repairs" report with
  | Some (Jsonw.Int 6) -> ()
  | _ -> die "report repairs != 6");
  Jsonw.to_string report

let () =
  let seed = 5 in
  let bare_g, bare_msgs, _ = run ~monitored:false seed in
  let g1, msgs1, mon1 = run ~monitored:true seed in
  let _, _, mon2 = run ~monitored:true seed in
  let m1 = match mon1 with Some m -> m | None -> die "no monitor" in
  let m2 = match mon2 with Some m -> m | None -> die "no monitor" in
  if not (Graph.equal bare_g g1) then die "monitor perturbed the healed graph";
  if bare_msgs <> msgs1 then die "monitor perturbed message totals (%d vs %d)" bare_msgs msgs1;
  let log1 = check_log m1 and log2 = check_log m2 in
  if not (String.equal log1 log2) then die "event log not byte-deterministic";
  let rep1 = check_report m1 and rep2 = check_report m2 in
  if not (String.equal rep1 rep2) then die "report not byte-deterministic";
  Printf.printf
    "monitor-smoke: ok (%d repairs, %d checks, %d events, %d violations; log %d bytes)\n"
    (Monitor.repairs m1) (Monitor.checks m1) (Monitor.num_events m1)
    (Monitor.num_violations m1) (String.length log1)
