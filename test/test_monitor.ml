(* The invariant observatory (lib/obs/monitor.ml): strict passivity of
   the [?monitor] engine seam (QCheck over seeds: byte-identical healed
   graphs, totals, and obs exports with the monitor on or off),
   byte-deterministic event logs per seed, shadow maintenance across
   insertions and multi-deletions, the engine's convergence seam, the
   sweep-path Expansion and Stretch verdicts on hand-built graphs, the
   checks' work and allocation on a seeded churn run — and the
   acceptance pin: over the exhaustive 5-node universe the
   expansion monitor fires exactly on the known 60 degree-<=2 corner
   cases and no other guarantee fires at all. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Cuts = Xheal_graph.Cuts
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Scope = Xheal_obs.Scope
module Monitor = Xheal_obs.Monitor
module Jsonw = Xheal_obs.Jsonw
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing

let mon_config ~seed =
  { Monitor.default_config with Monitor.cadence = 1; seed }

(* One seeded attack; [monitored] selects whether the engine carries a
   monitor. Returns everything passivity compares, plus the monitor. *)
let attack ?(n = 32) ?(deletions = 8) ~monitored seed =
  let obs = Scope.create () in
  let rng = Random.State.make [| seed |] in
  let g = Gen.random_regular ~rng n 4 in
  let monitor = if monitored then Some (Monitor.create ~config:(mon_config ~seed) g) else None in
  let eng = Xheal.create ~obs ?monitor ~rng g in
  let atk = Random.State.make [| seed + 1 |] in
  for _ = 1 to deletions do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
  done;
  ( Xheal.graph eng,
    (Xheal.totals eng).Cost.total_messages,
    Xheal_obs.Chrome_trace.to_string obs.Scope.tracer,
    Scope.metrics_string obs,
    monitor )

let test_monitor_passive_qcheck =
  QCheck.Test.make ~name:"monitor seam is passive (any seed)" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g0, m0, tr0, me0, _ = attack ~n:24 ~deletions:5 ~monitored:false seed in
      let g1, m1, tr1, me1, _ = attack ~n:24 ~deletions:5 ~monitored:true seed in
      Support.graph_equal g0 g1 && m0 = m1 && String.equal tr0 tr1 && String.equal me0 me1)

let test_monitor_passive_pinned () =
  List.iter
    (fun seed ->
      let g0, m0, tr0, me0, _ = attack ~monitored:false seed in
      let g1, m1, tr1, me1, mon = attack ~monitored:true seed in
      Alcotest.(check bool)
        (Printf.sprintf "healed graphs identical (seed %d)" seed)
        true (Support.graph_equal g0 g1);
      Alcotest.(check int) "message totals identical" m0 m1;
      Alcotest.(check bool) "trace bytes identical" true (String.equal tr0 tr1);
      Alcotest.(check bool) "metrics bytes identical" true (String.equal me0 me1);
      match mon with
      | Some m ->
        Alcotest.(check int) "monitor saw every repair" 8 (Monitor.repairs m);
        Alcotest.(check int) "cadence 1 checks every repair" 8 (Monitor.checks m);
        Alcotest.(check bool) "checks emitted events" true (Monitor.num_events m > 0);
        Alcotest.(check int) "a healthy attack fires no violation" 0
          (Monitor.num_violations m)
      | None -> Alcotest.fail "monitored run lost its monitor")
    [ 2; 19 ]

let test_event_log_deterministic () =
  let run () =
    match attack ~monitored:true 7 with
    | _, _, _, _, Some m -> (Monitor.to_jsonl m, Jsonw.to_string (Monitor.report_json m))
    | _ -> Alcotest.fail "no monitor"
  in
  let log1, rep1 = run () in
  let log2, rep2 = run () in
  Alcotest.(check bool) "event log byte-identical across runs" true (String.equal log1 log2);
  Alcotest.(check bool) "report byte-identical across runs" true (String.equal rep1 rep2);
  (* Every line of the log is a parseable object carrying the shared
     header fields and those of its event kind. *)
  let lines = String.split_on_char '\n' (String.trim log1) in
  Alcotest.(check bool) "log is non-trivial" true (List.length lines > 10);
  let has json line keys =
    List.iter
      (fun k -> if Jsonw.member k json = None then Alcotest.failf "line misses %S: %s" k line)
      keys
  in
  List.iter
    (fun line ->
      match Jsonw.of_string line with
      | Ok json ->
        (match Jsonw.member "event" json with
        | Some (Jsonw.String "sample") -> has json line [ "value" ]
        | Some (Jsonw.String "violation") ->
          has json line [ "node"; "bound"; "measured"; "detail" ]
        | _ -> Alcotest.failf "bad event kind in %s" line);
        has json line [ "guarantee"; "seq"; "time" ]
      | Error e -> Alcotest.failf "unparseable log line %s: %s" line e)
    lines;
  (* The report carries the schema tag, its counters and a repair per
     deletion. *)
  match Jsonw.of_string rep1 with
  | Ok report ->
    (match Jsonw.member "schema" report with
    | Some (Jsonw.String "xheal-monitor/1") -> ()
    | _ -> Alcotest.fail "report schema tag missing");
    has report rep1 [ "repairs"; "checks"; "events"; "violations"; "by_guarantee"; "samples" ];
    Alcotest.(check bool) "one repair per deletion" true
      (Jsonw.member "repairs" report = Some (Jsonw.Int 8))
  | Error e -> Alcotest.failf "unparseable report: %s" e

(* A counter from [report_json]'s work block. *)
let work key m =
  match Jsonw.member "work" (Monitor.report_json m) with
  | Some w -> (
    match Jsonw.member key w with
    | Some (Jsonw.Int n) -> n
    | _ -> Alcotest.failf "report work misses %s" key)
  | None -> Alcotest.fail "report misses work"

(* The acceptance pin. Exhaustively over every connected 5-node graph x
   every deletion (3640 cases, same engine seeding as test_exhaustive),
   the monitor's exact expansion check must fire precisely on the known
   degree-<=2 corner — 60 cases, every fired victim of degree <= 2 —
   and the degree / connectivity / stretch monitors must stay silent.
   G'_t is enumerated only on the 600 checks whose exact healed
   expansion sits below alpha, not on all 3640. *)
let test_degree2_corner_exhaustive () =
  let fired_cases = ref 0 and enumerations = ref 0 in
  let checked =
    Test_exhaustive.for_all_cases (fun g v ->
        let deg = Graph.degree g v in
        let monitor = Monitor.create ~config:(mon_config ~seed:0x0b5) g in
        let rng = Random.State.make [| 5 * Graph.num_edges g; v |] in
        let eng = Xheal.create ~monitor ~rng g in
        Xheal.delete eng v;
        enumerations := !enumerations + work "reference_enumerations" monitor;
        let by_g guarantee =
          List.length
            (List.filter (fun viol -> viol.Monitor.v_guarantee = guarantee)
               (Monitor.violations monitor))
        in
        List.iter
          (fun guarantee ->
            if by_g guarantee > 0 then
              Alcotest.failf "%s violation on m=%d v=%d"
                (Monitor.guarantee_to_string guarantee)
                (Graph.num_edges g) v)
          [ Monitor.Degree; Monitor.Connectivity; Monitor.Stretch; Monitor.Convergence ];
        if by_g Monitor.Expansion > 0 then begin
          incr fired_cases;
          if deg > 2 then
            Alcotest.failf "expansion fired on a degree-%d deletion (m=%d v=%d)" deg
              (Graph.num_edges g) v
        end)
  in
  Alcotest.(check int) "cases" 3640 checked;
  Alcotest.(check int) "expansion fires exactly on the 60 corner cases" 60 !fired_cases;
  Alcotest.(check int) "G' enumerated only below alpha" 600 !enumerations

(* Shadow maintenance: insertions grow the insert-only reference (so
   later degree checks budget against the grown G'), repeats are
   ignored, and a delete_many counts as one repair/one check. *)
let test_shadow_insert_delete_many () =
  let rng = Random.State.make [| 31 |] in
  let g = Gen.random_regular ~rng 20 4 in
  let monitor = Monitor.create ~config:(mon_config ~seed:31) g in
  let eng = Xheal.create ~monitor ~rng g in
  let fresh = 1000 in
  let nbrs =
    match Graph.nodes (Xheal.graph eng) with a :: b :: c :: _ -> [ a; b; c ] | _ -> []
  in
  Xheal.insert eng ~node:fresh ~neighbors:nbrs;
  (* The engine rejects duplicate inserts, but the monitor's shadow hook
     must be idempotent on its own (replayed notifications are no-ops). *)
  Monitor.on_insert monitor ~node:fresh ~neighbors:nbrs;
  Alcotest.(check int) "insertions alone trigger no checks" 0 (Monitor.checks monitor);
  let victims =
    List.filteri (fun i u -> i < 3 && u <> fresh) (Graph.nodes (Xheal.graph eng))
  in
  Xheal.delete_many eng victims;
  Alcotest.(check int) "delete_many is one repair" 1 (Monitor.repairs monitor);
  Alcotest.(check int) "and one check" 1 (Monitor.checks monitor);
  Alcotest.(check int) "no violations on a healthy run" 0 (Monitor.num_violations monitor);
  (match Xheal.check eng with
  | Ok () -> ()
  | Error e -> Alcotest.failf "engine invariant: %s" e);
  (* The report carries the run's counters and a sample per guarantee
     the check exercised. *)
  let report = Monitor.report_json monitor in
  (match Jsonw.member "schema" report with
  | Some (Jsonw.String "xheal-monitor/1") -> ()
  | _ -> Alcotest.fail "report schema tag missing");
  match Jsonw.member "samples" report with
  | Some (Jsonw.Obj samples) ->
    List.iter
      (fun k ->
        if not (List.mem_assoc k samples) then Alcotest.failf "no %s sample in report" k)
      [ "degree"; "expansion"; "conductance"; "connectivity"; "stretch" ]
  | _ -> Alcotest.fail "report samples missing"

(* The engine's Convergence seam: every phase the pricing backend runs
   reaches the monitor, so a repair whose report says it did not
   converge carries a Convergence violation with its [seq], and every
   such violation names an unconverged repair. Half the messages drop
   and the round cap is 40, so some phases must time out. *)
let test_convergence_seam () =
  let rng = Random.State.make [| 5 |] in
  let g = Gen.random_regular ~rng 40 4 in
  let monitor = Monitor.create ~config:(mon_config ~seed:5) g in
  let plan = Fault_plan.make ~seed:17 ~drop:0.5 () in
  let schedule = Schedule.async ~seed:18 ~fairness:2 in
  let backend = Pricing.backend ~max_rounds:40 ~seed:3 ~d:2 () in
  let eng = Xheal.create ~monitor ~plan ~schedule ~backend ~rng g in
  let atk = Random.State.make [| 6 |] in
  let unconverged = ref [] in
  for _ = 1 to 12 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)));
    match Xheal.last_report eng with
    | Some r when not r.Cost.measured.Cost.m_converged -> unconverged := r.Cost.seq :: !unconverged
    | _ -> ()
  done;
  let flagged =
    List.filter_map
      (fun v -> if v.Monitor.v_guarantee = Monitor.Convergence then Some v.Monitor.v_seq else None)
      (Monitor.violations monitor)
  in
  Alcotest.(check bool) "some repair timed out" true (!unconverged <> []);
  List.iter
    (fun seq ->
      if not (List.mem seq flagged) then
        Alcotest.failf "unconverged repair %d has no Convergence violation" seq)
    !unconverged;
  List.iter
    (fun seq ->
      if not (List.mem seq !unconverged) then
        Alcotest.failf "Convergence violation names repair %d, which converged" seq)
    flagged

(* At cadence 3 the engine captures the touched set only for the
   repairs the monitor checks ([Monitor.checks_next]). Its log must
   equal that of a monitor driven by hand with every repair's touched
   set (black neighbours plus cloud members, captured before the
   deletion), over single and batch deletions. *)
let test_touched_capture_on_cadence () =
  let config = { Monitor.default_config with Monitor.cadence = 3; seed = 41 } in
  let rng = Random.State.make [| 41 |] in
  let g = Gen.random_regular ~rng 40 4 in
  let seam = Monitor.create ~config g and driven = Monitor.create ~config g in
  let eng = Xheal.create ~monitor:seam ~rng g in
  let atk = Random.State.make [| 42 |] in
  let touched v =
    let blacks = List.filter (Xheal.is_black_edge eng v) (Graph.neighbors (Xheal.graph eng) v) in
    List.concat_map Xheal_core.Cloud.members (Xheal.clouds_of_node eng v) @ blacks
  in
  for k = 1 to 14 do
    let nodes = Array.of_list (Graph.nodes (Xheal.graph eng)) in
    let pick () = nodes.(Random.State.int atk (Array.length nodes)) in
    let victims =
      if k mod 4 = 0 then List.sort_uniq Int.compare [ pick (); pick () ] else [ pick () ]
    in
    let t = List.sort_uniq Int.compare (List.concat_map touched victims) in
    (match victims with [ v ] -> Xheal.delete eng v | _ -> Xheal.delete_many eng victims);
    Monitor.on_delete driven ~seq:k ~time:(Xheal.totals eng).Cost.total_rounds ~victims ~touched:t
      ~healed:(Xheal.graph eng)
  done;
  Alcotest.(check int) "checked repairs" 4 (Monitor.checks seam);
  Alcotest.(check string) "same log as a monitor fed every touched set" (Monitor.to_jsonl driven)
    (Monitor.to_jsonl seam)

let test_create_validation () =
  let g = Graph.create () in
  Graph.add_node g 0;
  (* A negative count would raise inside the first check, and a NaN, a
     non-positive alpha, a sweep tolerance of 1 or more or an infinite
     stretch factor would silently switch its comparison off (a factor
     <= 0 would clamp the stretch bound to 1), so [create] rejects each,
     naming the field. *)
  let names_field field config =
    match Monitor.create ~config g with
    | _ -> Alcotest.failf "%s accepted" field
    | exception Invalid_argument msg ->
      if not (Test_misc.contains ~needle:field msg) then
        Alcotest.failf "message %S does not name %s" msg field
  in
  let d = Monitor.default_config in
  names_field "kappa" { d with Monitor.kappa = 0 };
  names_field "cadence" { d with Monitor.cadence = 0 };
  names_field "exact_limit" { d with Monitor.exact_limit = 23 };
  names_field "degree_samples" { d with Monitor.degree_samples = -1 };
  names_field "stretch_sources" { d with Monitor.stretch_sources = -1 };
  names_field "stretch_targets" { d with Monitor.stretch_targets = -1 };
  names_field "alpha" { d with Monitor.alpha = Float.nan };
  names_field "sweep_tol" { d with Monitor.sweep_tol = Float.nan };
  names_field "alpha" { d with Monitor.alpha = 0.0 };
  names_field "alpha" { d with Monitor.alpha = -1.0 };
  names_field "sweep_tol" { d with Monitor.sweep_tol = 1.0 };
  names_field "sweep_tol" { d with Monitor.sweep_tol = -0.1 };
  names_field "stretch_factor" { d with Monitor.stretch_factor = Float.nan };
  names_field "stretch_factor" { d with Monitor.stretch_factor = Float.infinity };
  names_field "stretch_factor" { d with Monitor.stretch_factor = Float.neg_infinity };
  names_field "stretch_factor" { d with Monitor.stretch_factor = 0.0 };
  names_field "stretch_factor" { d with Monitor.stretch_factor = -1.0 };
  ignore (Monitor.create ~config:{ d with Monitor.degree_samples = 0; stretch_targets = 0 } g)

let connectivity_violations m =
  List.length
    (List.filter (fun v -> v.Monitor.v_guarantee = Monitor.Connectivity) (Monitor.violations m))

(* Connectivity is judged against the components of G'_t that still
   hold a live node. G' is the path 0-1-2 plus the isolated node 5;
   deleting 1 and 5 and healing nothing splits {0, 2}. G' minus the
   deletions also has 2 components, and so does G' itself (because of
   {5}), so neither count would notice. *)
let test_connectivity_live_components () =
  let reference = Support.of_edges ~nodes:[ 5 ] [ (0, 1); (1, 2) ] in
  let m = Monitor.create ~config:(mon_config ~seed:3) reference in
  Monitor.on_delete m ~seq:1 ~time:0 ~victims:[ 1; 5 ] ~touched:[ 0; 2 ]
    ~healed:(Support.of_edges ~nodes:[ 0; 2 ] []);
  Alcotest.(check int) "split live component fires once" 1 (connectivity_violations m);
  (* Deleting a whole G' component while the rest stays intact is not a
     breach. *)
  let reference = Support.of_edges [ (0, 1); (1, 2); (5, 6) ] in
  let m = Monitor.create ~config:(mon_config ~seed:3) reference in
  Monitor.on_delete m ~seq:1 ~time:0 ~victims:[ 5; 6 ] ~touched:[]
    ~healed:(Support.of_edges [ (0, 1); (1, 2) ]);
  Alcotest.(check int) "dead component raises nothing" 0 (Monitor.num_violations m);
  (* With one healed component the live components of G' are not
     counted: the verdict is whether any node of G' is still alive. *)
  let reference = Support.of_edges [ (0, 1); (1, 2) ] in
  let m = Monitor.create ~config:(mon_config ~seed:3) reference in
  Monitor.on_delete m ~seq:1 ~time:0 ~victims:[ 0; 1; 2 ] ~touched:[]
    ~healed:(Support.of_edges [ (7, 8) ]);
  (match Monitor.violations m with
  | [ v ] ->
    Alcotest.(check bool) "no live node of G': a connectivity breach" true
      (v.Monitor.v_guarantee = Monitor.Connectivity);
    Alcotest.(check (float 0.)) "against 0 live components" 0.0 v.Monitor.v_bound;
    Alcotest.(check (float 0.)) "one healed component" 1.0 v.Monitor.v_measured
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  let m = Monitor.create ~config:(mon_config ~seed:3) reference in
  Monitor.on_delete m ~seq:1 ~time:0 ~victims:[ 1 ] ~touched:[ 0; 2 ]
    ~healed:(Support.of_edges [ (0, 2) ]);
  Alcotest.(check int) "connected over live nodes of G'" 0 (connectivity_violations m)

(* The sweep path (n above exact_limit): samples flow, and a standard
   seeded run on a healthy expander never trips the banded tripwire. *)
let test_sweep_path_silent () =
  match attack ~n:64 ~deletions:10 ~monitored:true 23 with
  | _, _, _, _, Some m ->
    Alcotest.(check int) "no violations on the sweep path" 0 (Monitor.num_violations m);
    let expansion_samples =
      List.filter
        (fun e ->
          match e with
          | Monitor.Sample s -> s.Monitor.s_guarantee = Monitor.Expansion
          | Monitor.Violation _ -> false)
        (Monitor.events m)
    in
    Alcotest.(check int) "one expansion sample per check" (Monitor.checks m)
      (List.length expansion_samples)
  | _ -> Alcotest.fail "no monitor"

let clique nodes = List.concat_map (fun u -> List.map (fun v -> (u, v)) nodes) nodes

(* Two 10-cliques joined by the edge 18-19. Each end is the largest id
   of its clique and lists the other end last, so a BFS from any node
   labels its whole clique first: the prefix of 10 cuts one edge. *)
let barbell =
  let a = 18 :: List.init 9 Fun.id and b = 19 :: List.init 9 (fun i -> 9 + i) in
  Support.of_edges ((18, 19) :: List.filter (fun (u, v) -> u < v) (clique a @ clique b))

(* The G'_t sweep that guards the sweep path's Expansion verdict. With
   20 nodes (over exact_limit) the healed barbell's BFS-order sweep
   reads 1/10, below alpha*(1-tol) = 0.5, so G'_t is swept. Against the
   complete graph (sweep h = 10, target min(1, 10)*0.5) that is one
   Expansion violation; against the barbell itself (target 0.05) it is
   none. Nothing else fires. *)
let test_sweep_expansion_verdict () =
  let healed = barbell in
  let complete =
    Support.of_edges (List.filter (fun (u, v) -> u < v) (clique (List.init 20 Fun.id)))
  in
  let run reference =
    let m = Monitor.create ~config:(mon_config ~seed:11) reference in
    Monitor.on_delete m ~seq:1 ~time:0 ~victims:[] ~touched:[] ~healed;
    Alcotest.(check int) "G' swept once" 1 (work "reference_sweeps" m);
    m
  in
  let m = run complete in
  (match Monitor.violations m with
  | [ v ] ->
    Alcotest.(check bool) "an Expansion violation" true (v.Monitor.v_guarantee = Monitor.Expansion);
    Alcotest.(check (float 1e-12)) "sweep h of the barbell" 0.1 v.Monitor.v_measured;
    Alcotest.(check (float 1e-12)) "against min(alpha, h(G'))*(1-tol)" 0.5 v.Monitor.v_bound
  | vs -> Alcotest.failf "expected one violation against K20, got %d" (List.length vs));
  Alcotest.(check int) "an equally weak G' raises nothing" 0
    (Monitor.num_violations (run healed))

(* Stretch on a broken healed graph: G'_t is a star centred on 0 with
   leaves 1-29 (every distance 1 or 2) beside the edge 30-31; the
   healed graph is the paths 0-...-24 and 25-...-29 beside the same
   edge. With factor 1 the bound is log2 32 = 5, so far pairs on the
   long path breach it, pairs across the paths are unreachable
   (infinite stretch), and pairs G'_t cannot connect are skipped. The
   pinned violations hold a pair with the centre (G' distance 1), pairs
   of leaves (2) and unreachable pairs. Each finite violation's ratio
   is the ratio of its pair's [Support.distance]s. *)
let test_stretch_violations () =
  let path lo hi = List.init (hi - lo) (fun i -> (lo + i, lo + i + 1)) in
  let reference = Support.of_edges ((30, 31) :: List.init 29 (fun i -> (0, i + 1))) in
  let healed = Support.of_edges ((30, 31) :: (path 0 24 @ path 25 29)) in
  let config = { (mon_config ~seed:2) with Monitor.stretch_factor = 1.0 } in
  let m = Monitor.create ~config reference in
  Monitor.on_delete m ~seq:1 ~time:0 ~victims:[] ~touched:[] ~healed;
  let vs = List.filter (fun v -> v.Monitor.v_guarantee = Monitor.Stretch) (Monitor.violations m) in
  List.iter
    (fun v ->
      let u = v.Monitor.v_node in
      if Float.is_finite v.Monitor.v_measured then
        Scanf.sscanf v.Monitor.v_detail "dist %d vs %d in G' from %d" (fun hd rd s ->
            let d g = Option.get (Support.distance g s u) in
            Alcotest.(check (pair int int)) "distances" (d healed, d reference) (hd, rd);
            Alcotest.(check (float 0.)) "ratio" (float_of_int hd /. float_of_int rd)
              v.Monitor.v_measured)
      else
        Alcotest.(check (option int)) "unreachable in the healed graph" None
          (Scanf.sscanf v.Monitor.v_detail "pair (%d,%d)" (fun s _ ->
               Support.distance healed s u)))
    vs;
  Alcotest.(check (list (pair int (float 0.))))
    "pinned violations"
    [ (4, 8.5); (28, infinity); (8, 6.5); (28, infinity); (0, 12.) ]
    (List.map (fun v -> (v.Monitor.v_node, v.Monitor.v_measured)) vs)

(* ---------- The sweep path at scale ---------- *)

(* Words allocated so far: minor + major - promoted (a promoted word is
   counted in both of the first two). [Gc.stat], not [Gc.quick_stat]:
   on OCaml 5.1 the latter reads counters sampled at collections, which
   can miss every word a short window allocates. *)
let allocated () =
  let s = Gc.stat () in
  int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

(* Runs [f] and hands [hook] the words it allocated. [Gc.stat] walks
   the heap, so a run meters only the calls its caller asks about. *)
let metered hook f =
  match hook with
  | None -> f ()
  | Some k ->
    let before = allocated () in
    f ();
    k (allocated () - before)

(* A seeded churn run on the sweep path: an n = 2000 H-graph, each step
   one deletion, then one insertion with up to 3 live neighbours. The
   engine runs without a monitor and the test drives one at cadence 10
   the way the engine seam would, with the victim's neighbours as the
   touched set. [on_check] receives the words each guarantee check
   allocated, [on_delete] and [on_insert] the words of each
   [Xheal.delete] and [Xheal.insert]. *)
let churn_run ?on_check ?on_delete ?on_insert () =
  let n = 2000 and steps = 300 in
  let rng = Random.State.make [| n |] in
  let g = Gen.random_h_graph ~rng n 2 in
  let monitor =
    Monitor.create ~config:{ Monitor.default_config with Monitor.cadence = 10; seed = 2001 } g
  in
  let eng = Xheal.create ~rng g in
  let atk = Random.State.make [| 2002 |] in
  let alive = Array.init (n + steps) Fun.id and live = ref n in
  for k = 1 to steps do
    let i = Random.State.int atk !live in
    let v = alive.(i) in
    let touched = Graph.neighbors (Xheal.graph eng) v in
    metered on_delete (fun () -> Xheal.delete eng v);
    alive.(i) <- alive.(!live - 1);
    decr live;
    let checks = Monitor.checks monitor in
    let on_check = Option.map (fun f w -> if Monitor.checks monitor > checks then f w) on_check in
    metered on_check (fun () ->
        Monitor.on_delete monitor ~seq:k ~time:k ~victims:[ v ] ~touched ~healed:(Xheal.graph eng));
    let node = n + k in
    let neighbors =
      List.sort_uniq Int.compare (List.init 3 (fun _ -> alive.(Random.State.int atk !live)))
    in
    metered on_insert (fun () -> Xheal.insert eng ~node ~neighbors);
    Monitor.on_insert monitor ~node ~neighbors;
    alive.(!live) <- node;
    incr live
  done;
  (monitor, eng)

let md5 s = Digest.to_hex (Digest.string s)

(* The graph as a CSR triple in id order: the sorted ids, the row
   offsets, and each row's neighbour ranks. *)
let csr_string g =
  let ids = Graph.nodes g in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i u -> Hashtbl.replace rank u i) ids;
  let offsets =
    List.rev (List.fold_left (fun acc u -> (List.hd acc + Graph.degree g u) :: acc) [ 0 ] ids)
  in
  let cols = List.concat_map (fun u -> List.map (Hashtbl.find rank) (Graph.neighbors g u)) ids in
  let ints l = String.concat "," (List.map string_of_int l) in
  String.concat ";" [ ints ids; ints offsets; ints cols ]

(* Only this test and perfbench's pin guard the bytes of a sweep-path
   log. A rewrite of the slot kernels or the monitor must keep all
   three digests. *)
let test_sweep_path_golden () =
  let monitor, eng = churn_run () in
  Alcotest.(check int) "checks" 30 (Monitor.checks monitor);
  Alcotest.(check int) "violations" 0 (Monitor.num_violations monitor);
  Alcotest.(check string) "event log" "114d34bf18da3558ea0116bd251c6efd"
    (md5 (Monitor.to_jsonl monitor));
  Alcotest.(check string) "report" "937c9a91f46dc7e84fa541b3fa12076f"
    (md5 (Jsonw.to_string (Monitor.report_json monitor)));
  Alcotest.(check string) "healed CSR triple" "f1f27fa5f065491b3838992d62f1553d"
    (md5 (csr_string (Xheal.graph eng)))

(* Work pin: of [churn_run]'s 30 checks, the number that sweep G'_t
   (exact: every healed estimate clears alpha*(1-tol)) and the slots
   their traversals label (162 140 measured, plus 10%). A G'_t sweep
   run whatever the healed estimate reads, or a stretch pair answered
   by one-sided BFS, fails here. *)
let visited_ceiling = 178_354

let test_check_work () =
  let monitor, _ = churn_run () in
  let visited = work "slots_visited" monitor in
  Alcotest.(check int) "G' sweeps" 0 (work "reference_sweeps" monitor);
  Alcotest.(check bool)
    (Printf.sprintf "checks label %d <= %d slots" visited visited_ceiling)
    true (visited <= visited_ceiling)

(* Allocation tripwire. The 30 checks of [churn_run] allocate 255 to
   318 words each (median 264; OCaml 5.1.1, no flambda), except the two
   that grow the monitor's kept scratch: the first check (10 297 words:
   both graphs' BFS scratch and the healed rank buffer) and the second
   (8 302: the insert-only reference outgrew it). [check_ceiling] is
   the largest plus 10%; [steady_ceiling] is the median plus 10%, so a
   check that rebuilds its scratch, copies a graph, allocates the id
   sort's digit counts or per-pair stretch state fails even
   though the first check's growth stays under [check_ceiling]. *)
let check_ceiling = 11_327

let steady_ceiling = 290

let median words =
  let sorted = List.sort Int.compare words in
  List.nth sorted (List.length sorted / 2)

let test_check_allocation () =
  let words = ref [] in
  ignore (churn_run ~on_check:(fun w -> words := w :: !words) ());
  let worst = List.fold_left max 0 !words and mid = median !words in
  Alcotest.(check bool)
    (Printf.sprintf "largest check allocates %d <= %d words" worst check_ceiling)
    true (worst <= check_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "median check allocates %d <= %d words" mid steady_ceiling)
    true (mid <= steady_ceiling)

(* The engine's own tripwire, on the same run: the median words one
   [Xheal.delete] (596 measured) and one [Xheal.insert] (101) allocate,
   and the words [Xheal.create] allocates on the run's seed graph
   (52 361 measured: two copies of the graph). Each ceiling is a
   measurement plus 10% (OCaml 5.1.1, no flambda). A repair path that
   starts copying a cloud, an engine that keeps a per-edge table
   again, or a registry that keeps a hash table per node, fails here. *)
let delete_ceiling = 656

let insert_ceiling = 111

let create_ceiling = 57_597

let test_engine_allocation () =
  let deletes = ref [] and inserts = ref [] in
  ignore
    (churn_run
       ~on_delete:(fun w -> deletes := w :: !deletes)
       ~on_insert:(fun w -> inserts := w :: !inserts)
       ());
  let d = median !deletes and i = median !inserts in
  Alcotest.(check bool)
    (Printf.sprintf "median delete allocates %d <= %d words" d delete_ceiling)
    true (d <= delete_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "median insert allocates %d <= %d words" i insert_ceiling)
    true (i <= insert_ceiling)

(* The words the engine holds at the end of the same run
   ([Obj.reachable_words]: its two graphs, its clouds and the
   registry's indexes; 99 355 measured, OCaml 5.1.1, no flambda), plus
   10%. A hash table per node in the registry's membership index, or a
   position table in every small cloud's member sampler, fails here
   (the pair of them held 135 578 words). *)
let live_ceiling = 109_291

let test_engine_live_words () =
  let _, eng = churn_run () in
  let words = Obj.reachable_words (Obj.repr eng) in
  Alcotest.(check bool)
    (Printf.sprintf "engine holds %d <= %d words" words live_ceiling)
    true (words <= live_ceiling)

let test_engine_create_allocation () =
  let n = 2000 in
  let rng = Random.State.make [| n |] in
  let g = Gen.random_h_graph ~rng n 2 in
  let before = allocated () in
  ignore (Xheal.create ~rng g);
  let words = allocated () - before in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates %d <= %d words" words create_ceiling)
    true (words <= create_ceiling)

let suite =
  [
    ( "monitor",
      [
        QCheck_alcotest.to_alcotest test_monitor_passive_qcheck;
        Alcotest.test_case "passivity pinned on two seeds" `Quick test_monitor_passive_pinned;
        Alcotest.test_case "event log and report are byte-deterministic" `Quick
          test_event_log_deterministic;
        Alcotest.test_case "expansion fires exactly on the degree-<=2 corner" `Slow
          test_degree2_corner_exhaustive;
        Alcotest.test_case "shadow insert + delete_many" `Quick
          test_shadow_insert_delete_many;
        Alcotest.test_case "engine convergence seam" `Quick test_convergence_seam;
        Alcotest.test_case "touched set captured only for checked repairs" `Quick
          test_touched_capture_on_cadence;
        Alcotest.test_case "config validation" `Quick test_create_validation;
        Alcotest.test_case "connectivity counts live components of G'" `Quick
          test_connectivity_live_components;
        Alcotest.test_case "sweep path stays silent on healthy runs" `Quick
          test_sweep_path_silent;
        Alcotest.test_case "G' sweep decides a low sweep estimate" `Quick
          test_sweep_expansion_verdict;
        Alcotest.test_case "stretch violations on a split path" `Quick test_stretch_violations;
        Alcotest.test_case "sweep-path outputs match the golden digests" `Quick
          test_sweep_path_golden;
        Alcotest.test_case "checks' traversal work stays under its ceiling" `Quick
          test_check_work;
        Alcotest.test_case "one check's allocation stays under its ceiling" `Quick
          test_check_allocation;
        Alcotest.test_case "engine delete and insert allocation stay under their ceilings"
          `Quick test_engine_allocation;
        Alcotest.test_case "engine create allocation stays under its ceiling" `Quick
          test_engine_create_allocation;
        Alcotest.test_case "engine live words stay under their ceiling" `Quick
          test_engine_live_words;
      ] );
  ]
