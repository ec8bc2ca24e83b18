(* Command-line front-end: run experiments, run custom attacks, export
   DOT snapshots. `xheal_cli --help` lists everything. *)

module Graph = Xheal_graph.Graph
module Generators = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Dot = Xheal_graph.Dot
module Healer = Xheal_core.Healer
module Cost = Xheal_core.Cost
module Driver = Xheal_adversary.Driver
module Strategy = Xheal_adversary.Strategy
module Expansion = Xheal_metrics.Expansion
module Degree = Xheal_metrics.Degree
module Stretch = Xheal_metrics.Stretch
module Registry = Xheal_experiments.Registry
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Scope = Xheal_obs.Scope
module Chrome_trace = Xheal_obs.Chrome_trace

open Cmdliner

(* ---------- shared argument parsing ---------- *)

(* Shape sizes and event counts are counts: a negative one is a usage
   error naming its flag (exit 124), not an empty graph or a no-op. *)
let parse_count s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "%S is not a non-negative integer" s))

let count_conv = Arg.conv (parse_count, Format.pp_print_int)

let parse_shape s =
  let count f = match parse_count f with Ok n -> n | Error (`Msg m) -> failwith m in
  let prob f =
    match float_of_string_opt f with
    | Some p -> p
    | None -> failwith (Printf.sprintf "%S is not a number" f)
  in
  try
    Ok
      (match String.split_on_char ':' s with
      | [ "star"; n ] -> `Star (count n)
      | [ "path"; n ] -> `Path (count n)
      | [ "cycle"; n ] -> `Cycle (count n)
      | [ "grid"; r; c ] -> `Grid (count r, count c)
      | [ "regular"; n; d ] -> `Regular (count n, count d)
      | [ "er"; n; p ] -> `Er (count n, prob p)
      | [ "hgraph"; n; d ] -> `Hgraph (count n, count d)
      | [ "pa"; n; k ] -> `Pa (count n, count k)
      | _ ->
        failwith
          (Printf.sprintf
             "unknown shape %S (try star:N, path:N, cycle:N, grid:R:C, regular:N:D, er:N:P, hgraph:N:D, pa:N:K)"
             s))
  with Failure m -> Error (`Msg m)

let build_shape ~rng = function
  | `Star n -> Generators.star n
  | `Path n -> Generators.path n
  | `Cycle n -> Generators.cycle n
  | `Grid (r, c) -> Generators.grid r c
  | `Regular (n, d) -> Generators.random_regular ~rng n d
  | `Er (n, p) -> Generators.connected_er ~rng n p
  | `Hgraph (n, d) -> Generators.random_h_graph ~rng n d
  | `Pa (n, k) -> Generators.preferential_attachment ~rng n k

(* The generators validate their own parameters (d < n, p in (0, 1],
   ...); a shape they reject is a usage error naming the flag. *)
let initial_graph ~rng shape =
  match build_shape ~rng shape with
  | g -> Ok g
  | exception Invalid_argument m -> Error (false, "option '--shape': " ^ m)

let shape_conv =
  let printer ppf _ = Format.fprintf ppf "<shape>" in
  Arg.conv (parse_shape, printer)

(* ---------- output files ---------- *)

(* The explicit [close_out] reports a failed flush, which the
   [close_out_noerr] cleanup would swallow. *)
let write_string path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      close_out oc)

(* Runs each [(option, file, write)] in order and stops at the first
   failure: a file that cannot be written is a usage error (exit 124)
   naming the option and the file, not an uncaught exception. *)
let write_outputs writes =
  List.fold_left
    (fun acc (opt, path, write) ->
      Result.bind acc (fun () ->
          match write path with
          | () -> Ok ()
          | exception Sys_error reason ->
            Error (false, Printf.sprintf "option '%s': cannot write %s: %s" opt path reason)))
    (Ok ()) writes

let healer_labels () =
  List.map (fun f -> f.Healer.label) (Xheal_baselines.Baselines.all ())

let find_healer label =
  if String.lowercase_ascii label = "xheal" then Some (Xheal_baselines.Baselines.xheal ())
  else Xheal_baselines.Baselines.by_label label

let strategy_of_name ~rng ~first_id = function
  | "random" -> Ok (Strategy.random_delete ~rng ())
  | "hub" -> Ok (Strategy.hub_delete ~rng ())
  | "min-degree" -> Ok (Strategy.min_degree_delete ~rng ())
  | "cutpoint" -> Ok (Strategy.cutpoint_delete ~rng ())
  | "bottleneck" -> Ok (Strategy.bottleneck_delete ~rng ())
  | "churn" -> Ok (Strategy.churn ~rng ~first_id ())
  | "adaptive-churn" -> Ok (Strategy.adaptive_churn ~rng ~first_id ())
  | s -> Error (Printf.sprintf "unknown strategy %S" s)

(* ---------- logging ---------- *)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Engine debug logging on stderr.")

(* ---------- experiments command ---------- *)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Smaller instances (used by the test suite).")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).") in
  let run quick ids =
    let ids = match ids with [] -> None | l -> Some l in
    match Registry.run_all ~quick ?ids ~out:print_string () with
    | true -> `Ok ()
    | false -> `Error (false, "at least one experiment claim failed")
    | exception Invalid_argument m -> `Error (false, m)
  in
  let doc =
    Printf.sprintf "Reproduce the paper's guarantees (%s)."
      (String.concat ", " (List.map (fun e -> e.Xheal_experiments.Exp.id) Registry.all))
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(ret (const run $ quick $ ids))

(* ---------- attack command ---------- *)

let report_driver driver kappa =
  let healed = Driver.graph driver and reference = Driver.gprime driver in
  let hm = Expansion.measure healed and rm = Expansion.measure reference in
  Format.printf "events: %d (deletions %d)@." (Driver.steps driver) (Driver.deletions driver);
  Format.printf "healed : %a@." Expansion.pp hm;
  Format.printf "G'     : %a@." Expansion.pp rm;
  Format.printf "components: %d@." (Traversal.num_components healed);
  let deg = Degree.report ~kappa ~healed ~reference in
  Format.printf "degree : max ratio %.2f, slack %d (limit %d), ok %b@." deg.Degree.max_ratio
    deg.Degree.max_additive_slack (2 * kappa) deg.Degree.bound_ok;
  let st = Stretch.report ~healed ~reference () in
  Format.printf "stretch: %.2f over %d pairs@." st.Stretch.max_stretch st.Stretch.pairs_checked;
  let t = (Driver.healer driver).Healer.totals () in
  Format.printf "cost   : %.1f msgs/del (A(p)=%.1f), worst %d rounds, %d combines@."
    (Cost.amortized_messages t) (Cost.amortized_lower_bound t) t.Cost.max_rounds t.Cost.combines

let attack_cmd =
  let shape =
    Arg.(value & opt shape_conv (`Er (64, 0.08)) & info [ "shape" ] ~docv:"SHAPE" ~doc:"Initial network (e.g. er:64:0.08, star:65, grid:8:8).")
  in
  let healer =
    Arg.(value & opt string "xheal" & info [ "healer" ] ~docv:"HEALER" ~doc:"Healing strategy (see `list').")
  in
  let strategy =
    Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"STRAT" ~doc:"random | hub | min-degree | cutpoint | bottleneck | churn | adaptive-churn.")
  in
  let steps = Arg.(value & opt count_conv 30 & info [ "steps" ] ~docv:"N" ~doc:"Number of adversarial events.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the healed graph as DOT.")
  in
  let run verbose shape healer strategy steps seed dot_out =
    setup_logs verbose;
    match find_healer healer with
    | None ->
      `Error (false, Printf.sprintf "unknown healer %S (known: %s)" healer (String.concat ", " (healer_labels ())))
    | Some factory -> (
      let rng = Random.State.make [| seed |] in
      match initial_graph ~rng shape with
      | Error e -> `Error e
      | Ok initial -> (
      let atk = Random.State.make [| seed + 1 |] in
      match strategy_of_name ~rng:atk ~first_id:(10 * Graph.num_nodes initial) strategy with
      | Error e -> `Error (false, e)
      | Ok strat ->
        let driver = Driver.init factory ~rng initial in
        ignore (Driver.run driver strat ~steps);
        report_driver driver 4;
        match
          write_outputs
            (Option.fold ~none:[]
               ~some:(fun path -> [ ("--dot", path, fun p -> Dot.write_file p (Driver.graph driver)) ])
               dot_out)
        with
        | Error e -> `Error e
        | Ok () -> `Ok ()))
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run one adversarial scenario against one healer and report the guarantees.")
    Term.(ret (const run $ verbose_flag $ shape $ healer $ strategy $ steps $ seed $ dot_out))

(* ---------- batch command ---------- *)

let batch_cmd =
  let shape =
    Arg.(value & opt shape_conv (`Er (64, 0.08)) & info [ "shape" ] ~docv:"SHAPE" ~doc:"Initial network.")
  in
  let batch = Arg.(value & opt count_conv 4 & info [ "batch" ] ~docv:"K" ~doc:"Victims per timestep.") in
  let timesteps = Arg.(value & opt count_conv 5 & info [ "timesteps" ] ~docv:"T" ~doc:"Number of batch deletions.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let run verbose shape batch timesteps seed =
    setup_logs verbose;
    let rng = Random.State.make [| seed |] in
    match initial_graph ~rng shape with
    | Error e -> `Error e
    | Ok initial ->
    let eng = Xheal_core.Xheal.create ~rng initial in
    let atk = Random.State.make [| seed + 1 |] in
    for step = 1 to timesteps do
      let nodes = Graph.nodes (Xheal_core.Xheal.graph eng) in
      if List.length nodes > batch + 4 then begin
        let victims =
          List.filteri (fun i _ -> i < batch)
            (Xheal_graph.Generators.shuffle_list ~rng:atk nodes)
        in
        Xheal_core.Xheal.delete_many eng victims;
        let g = Xheal_core.Xheal.graph eng in
        Format.printf "t=%d: deleted %d nodes -> n=%d m=%d clouds=%d connected=%b@." step
          (List.length victims) (Graph.num_nodes g) (Graph.num_edges g)
          (Xheal_core.Xheal.num_clouds eng)
          (Traversal.is_connected g)
      end
    done;
    let healed = Xheal_core.Xheal.graph eng in
    let hm = Expansion.measure healed in
    Format.printf "final: %a@." Expansion.pp hm;
    (match Xheal_core.Xheal.check eng with
    | Ok () -> Format.printf "invariants: ok@."
    | Error e -> Format.printf "invariants: BROKEN (%s)@." e);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Multi-deletion timesteps (the paper's batch extension) against Xheal.")
    Term.(ret (const run $ verbose_flag $ shape $ batch $ timesteps $ seed))

(* ---------- trace command ---------- *)

let trace_cmd =
  let shape =
    Arg.(value & opt shape_conv (`Er (48, 0.1)) & info [ "shape" ] ~docv:"SHAPE" ~doc:"Initial network.")
  in
  let steps = Arg.(value & opt count_conv 10 & info [ "steps" ] ~docv:"N" ~doc:"Number of deletions to trace.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed; same seed, same bytes.") in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc:"Message drop probability (0 = fault-free).")
  in
  let fairness =
    Arg.(value & opt int 0 & info [ "async" ] ~docv:"F" ~doc:"Asynchronous delivery with fairness bound F (0 = synchronous).")
  in
  let out =
    Arg.(value & opt string "trace.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome-trace output file (load in chrome://tracing or Perfetto).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Also dump the flat metrics registry as JSON.")
  in
  let aggregate =
    Arg.(value & flag & info [ "aggregate" ] ~doc:"Print a flamegraph-style per-span summary (count, total, self) on stdout.")
  in
  let run verbose shape steps seed drop fairness out metrics_out aggregate =
    setup_logs verbose;
    if not (drop >= 0.0 && drop <= 1.0) then `Error (false, "--drop must be in [0, 1]")
    else if fairness < 0 then `Error (false, "--async must be >= 0")
    else begin
      let rng = Random.State.make [| seed |] in
      match initial_graph ~rng shape with
      | Error e -> `Error e
      | Ok initial ->
      let plan =
        if drop > 0.0 then Fault_plan.make ~seed:(seed + 3) ~drop () else Fault_plan.none
      in
      let schedule =
        if fairness > 0 then Schedule.async ~seed:(seed + 4) ~fairness else Schedule.sync
      in
      (* Every repair is priced by running its protocols through the
         backend, which traces on simulated virtual time, one node per
         track; the engine itself stays unobserved so the trace keeps a
         single clock. *)
      let obs = Scope.create () in
      let cfg = Xheal_core.Config.default in
      let backend = Pricing.backend ~obs ~seed:(seed + 2) ~d:cfg.Xheal_core.Config.d () in
      let eng = Xheal_core.Xheal.create ~cfg ~plan ~schedule ~backend ~rng initial in
      let atk = Random.State.make [| seed + 1 |] in
      for _ = 1 to steps do
        let nodes = Graph.nodes (Xheal_core.Xheal.graph eng) in
        if List.length nodes > 4 then
          Xheal_core.Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
      done;
      match Xheal_obs.Tracer.check obs.Scope.tracer with
      | Error e -> `Error (false, "trace is malformed: " ^ e)
      | Ok () -> (
        let metrics_write =
          Option.fold ~none:[]
            ~some:(fun path ->
              [ ("--metrics", path, fun p -> write_string p (Scope.metrics_string obs)) ])
            metrics_out
        in
        match
          write_outputs
            (("--out", out, fun p -> Chrome_trace.write_file p obs.Scope.tracer) :: metrics_write)
        with
        | Error e -> `Error e
        | Ok () ->
        if aggregate then begin
          let aggs = Xheal_obs.Tracer.aggregate obs.Scope.tracer in
          Format.printf "%-28s %8s %10s %10s@." "span" "count" "total" "self";
          List.iter
            (fun a ->
              Format.printf "%-28s %8d %10d %10d@." a.Xheal_obs.Tracer.agg_name
                a.Xheal_obs.Tracer.count a.Xheal_obs.Tracer.total a.Xheal_obs.Tracer.self)
            aggs
        end;
        let totals = Xheal_core.Xheal.totals eng in
        Format.printf "traced %d deletions: %d priced messages, converged %b@."
          totals.Cost.deletions totals.Cost.total_messages (totals.Cost.unconverged = 0);
        Format.printf "wrote %s%s@." out
          (match metrics_out with Some p -> " and " ^ p | None -> "");
        `Ok ())
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a seeded deletion attack with every repair priced as real protocols on the simulator, and export their Chrome-trace JSON (deterministic: same seed, byte-identical file).")
    Term.(
      ret
        (const run $ verbose_flag $ shape $ steps $ seed $ drop $ fairness $ out
       $ metrics_out $ aggregate))

(* ---------- report command ---------- *)

let report_cmd =
  let shape =
    Arg.(value & opt shape_conv (`Er (48, 0.1)) & info [ "shape" ] ~docv:"SHAPE" ~doc:"Initial network.")
  in
  let steps = Arg.(value & opt count_conv 10 & info [ "steps" ] ~docv:"N" ~doc:"Number of deletions to monitor.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed; same seed, same bytes.") in
  let cadence =
    Arg.(value & opt int 1 & info [ "cadence" ] ~docv:"K" ~doc:"Run the guarantee checks every K-th repair.")
  in
  let events_out =
    Arg.(value & opt string "events.jsonl" & info [ "events" ] ~docv:"FILE" ~doc:"Structured event log (one JSON object per line).")
  in
  let out =
    Arg.(value & opt string "report.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Repair-report JSON output file.")
  in
  let detector =
    Arg.(
      value & flag
      & info [ "detector" ]
          ~doc:
            "Replace the deletion oracle with the heartbeat failure detector: every \
             deletion is preceded by a billed 'detect' phase over the victim's \
             neighbourhood, each repair's election and build are measured as protocols \
             too, and the report gains a detector block (suspicion/refutation counters, \
             detection-latency summary, Detection-guarantee violations). Off, the output \
             is byte-identical to builds without this flag.")
  in
  let run verbose shape steps seed cadence events_out out detector =
    setup_logs verbose;
    if cadence < 1 then `Error (false, "cadence must be >= 1")
    else begin
      let module Monitor = Xheal_obs.Monitor in
      let module Metrics = Xheal_obs.Metrics in
      let module Jsonw = Xheal_obs.Jsonw in
      let rng = Random.State.make [| seed |] in
      match initial_graph ~rng shape with
      | Error e -> `Error e
      | Ok initial ->
      let cfg = Xheal_core.Config.default in
      let monitor =
        Monitor.create
          ~config:
            {
              Monitor.default_config with
              Monitor.kappa = Xheal_core.Config.kappa cfg;
              cadence;
              seed = seed + 5;
            }
          initial
      in
      let obs = Scope.create () in
      let detect_cfg = Xheal_fault.Detect.make ~seed:(seed + 7) () in
      let backend =
        if detector then
          Some (Pricing.backend ~seed:(seed + 3) ~d:cfg.Xheal_core.Config.d ())
        else None
      in
      let trigger =
        if detector then Xheal_core.Xheal.Detector detect_cfg else Xheal_core.Xheal.Oracle
      in
      let eng = Xheal_core.Xheal.create ~cfg ~obs ~monitor ?backend ~rng initial in
      let atk = Random.State.make [| seed + 1 |] in
      let repairs = ref [] in
      for _ = 1 to steps do
        let nodes = Graph.nodes (Xheal_core.Xheal.graph eng) in
        if List.length nodes > 4 then begin
          let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
          Xheal_core.Xheal.delete ~trigger eng v;
          Option.iter (fun r -> repairs := r :: !repairs) (Xheal_core.Xheal.last_report eng)
        end
      done;
      let phase_json (p : Cost.phase) =
        Jsonw.Obj
          [
            ("label", Jsonw.String p.Cost.label);
            ("rounds", Jsonw.Int p.Cost.rounds);
            ("messages", Jsonw.Int p.Cost.messages);
          ]
      in
      let repair_json (r : Cost.report) =
        Jsonw.Obj
          [
            ("seq", Jsonw.Int r.Cost.seq);
            ("case", Jsonw.String (Cost.case_to_string r.Cost.case));
            ("rounds", Jsonw.Int r.Cost.rounds);
            ("messages", Jsonw.Int r.Cost.messages);
            ("combined", Jsonw.Bool r.Cost.combined);
            ("edges_added", Jsonw.Int r.Cost.edges_added);
            ("edges_removed", Jsonw.Int r.Cost.edges_removed);
            ("clouds_touched", Jsonw.Int r.Cost.clouds_touched);
            ("converged", Jsonw.Bool r.Cost.measured.Cost.m_converged);
            ("phases", Jsonw.List (List.map phase_json r.Cost.phases));
          ]
      in
      let detector_block =
        if not detector then []
        else begin
          let counters = Metrics.counters obs.Scope.metrics in
          let c name = Option.value ~default:0 (List.assoc_opt name counters) in
          let latencies =
            List.filter_map
              (function
                | Monitor.Sample s when s.Monitor.s_guarantee = Monitor.Detection ->
                  Some s.Monitor.s_value
                | _ -> None)
              (Monitor.events monitor)
          in
          let missed =
            List.length
              (List.filter
                 (fun (v : Monitor.violation) -> v.Monitor.v_guarantee = Monitor.Detection)
                 (Monitor.violations monitor))
          in
          let mean =
            if latencies = [] then 0.0
            else List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies)
          in
          [
            ( "detector",
              Jsonw.Obj
                [
                  ( "config",
                    Jsonw.Obj
                      [
                        ("period", Jsonw.Int detect_cfg.Xheal_fault.Detect.period);
                        ("timeout", Jsonw.Int detect_cfg.Xheal_fault.Detect.timeout);
                        ("ladder", Jsonw.Int detect_cfg.Xheal_fault.Detect.ladder);
                        ("confirm", Jsonw.Int detect_cfg.Xheal_fault.Detect.confirm);
                        ("horizon", Jsonw.Int detect_cfg.Xheal_fault.Detect.horizon);
                      ] );
                  ("suspicions", Jsonw.Int (c "xheal.detect.suspicions"));
                  ("refutations", Jsonw.Int (c "xheal.detect.refutations"));
                  ("confirmations", Jsonw.Int (c "xheal.detect.confirmations"));
                  ("detections", Jsonw.Int (List.length latencies));
                  ("mean_latency", Jsonw.Float mean);
                  ("bound_violations", Jsonw.Int missed);
                ] );
          ]
        end
      in
      let report =
        Jsonw.Obj
          ([
             ("schema", Jsonw.String "xheal-report/1");
             ("seed", Jsonw.Int seed);
             ("deletions", Jsonw.Int (List.length !repairs));
             ("monitor", Monitor.report_json monitor);
             ("repairs", Jsonw.List (List.rev_map repair_json !repairs));
             ( "histograms",
               Jsonw.Obj
                 (List.map
                    (fun (name, s) -> (name, Metrics.summary_json s))
                    (Metrics.summaries obs.Scope.metrics)) );
           ]
          @ detector_block)
      in
      match
        write_outputs
          [
            ("--events", events_out, fun p -> write_string p (Monitor.to_jsonl monitor));
            ("--out", out, fun p -> write_string p (Jsonw.to_string_pretty report ^ "\n"));
          ]
      with
      | Error e -> `Error e
      | Ok () ->
        Format.printf "monitored %d repairs: %d checks, %d events, %d violations@."
          (Monitor.repairs monitor) (Monitor.checks monitor) (Monitor.num_events monitor)
          (Monitor.num_violations monitor);
        Format.printf "wrote %s and %s@." events_out out;
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a seeded deletion attack with the invariant observatory on and export the structured event log plus a per-repair report (deterministic: same seed, byte-identical files).")
    Term.(
      ret
        (const run $ verbose_flag $ shape $ steps $ seed $ cadence $ events_out $ out
       $ detector))

(* ---------- list command ---------- *)

let list_cmd =
  let run () =
    print_endline "healers:";
    List.iter (fun l -> print_endline ("  " ^ l)) (healer_labels ());
    print_endline "strategies: random, hub, min-degree, cutpoint, bottleneck, churn, adaptive-churn";
    print_endline "shapes: star:N path:N cycle:N grid:R:C regular:N:D er:N:P hgraph:N:D pa:N:K";
    print_endline "experiments:";
    List.iter
      (fun e -> Printf.printf "  %-3s %s\n" e.Xheal_experiments.Exp.id e.Xheal_experiments.Exp.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List healers, strategies, shapes and experiments.") Term.(const run $ const ())

let main =
  let doc = "Xheal: localized self-healing using expanders (PODC 2011 reproduction)" in
  Cmd.group (Cmd.info "xheal_cli" ~version:"1.0.0" ~doc)
    [ experiments_cmd; attack_cmd; batch_cmd; trace_cmd; report_cmd; list_cmd ]

let () = exit (Cmd.eval main)
