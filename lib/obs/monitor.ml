(* Online invariant observatory: samples the paper's guarantees while a
   run is in flight and turns every breach into a structured event.

   The monitor keeps its own insert-only shadow graph (the G'_t the
   guarantees compare against — same maintenance discipline as
   [Xheal_adversary.Driver]: deletions are ignored). It is strictly
   passive: it owns a private RNG seeded from its config, never
   draws from the engine's RNG, and never mutates the healed graph —
   an engine run with [?monitor:None] is bit-identical to one without
   the seam, and a monitored run's event log is a pure function of the
   seeds.

   Checks run on a configurable repair cadence, straight on the two
   graph stores' slot views ({!Graph.view}): nothing is packed. The
   monitor keeps one slot-indexed BFS scratch per graph across checks,
   grown when that graph's slot space grows and reset after each
   traversal through the queue prefix it visited; rank samples come
   from the healed graph's slots sorted by id. Small graphs get exact
   expansion (subset enumeration, so the known degree-<=2 corner from
   test_exhaustive fires exactly); larger graphs get sampled BFS-order
   sweep estimates (upper bounds, compared with a generous tolerance
   so estimation noise never reads as a breach). The healed sweep's
   BFS also settles connectivity when it reaches every healed node;
   otherwise connectivity counts components, and counts the G'_t
   components that still hold a live node only once the healed graph
   has split: the healed graph must not split a component the
   deletions left alive. G'_t is enumerated only when the exact healed
   value sits below alpha, and swept only when the healed estimate
   sits below alpha*(1-tol): each is the most its target can be, so a
   reference read that could not change the verdict never runs. Each
   stretch pair is one exact bidirectional search per graph, G'_t first
   and the healed graph only for a pair G'_t connects. The checks count
   the reference enumerations and sweeps they run and the slots their
   traversals label, for [report_json]. The degree kernel is a flat
   array scan marked hot on its binding line — the H-rules keep its
   loop allocation-free. *)

module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Cuts = Xheal_graph.Cuts

type guarantee =
  | Degree | Expansion | Conductance | Connectivity | Stretch | Convergence | Detection

let all_guarantees =
  [ Degree; Expansion; Conductance; Connectivity; Stretch; Convergence; Detection ]

let guarantee_to_string = function
  | Degree -> "degree"
  | Expansion -> "expansion"
  | Conductance -> "conductance"
  | Connectivity -> "connectivity"
  | Stretch -> "stretch"
  | Convergence -> "convergence"
  | Detection -> "detection"

let gindex = function
  | Degree -> 0
  | Expansion -> 1
  | Conductance -> 2
  | Connectivity -> 3
  | Stretch -> 4
  | Convergence -> 5
  | Detection -> 6

type config = {
  kappa : int;
  cadence : int;
  exact_limit : int;
  alpha : float;
  sweep_tol : float;
  degree_samples : int;
  stretch_sources : int;
  stretch_targets : int;
  stretch_factor : float;
  seed : int;
}

let default_config =
  {
    kappa = 4;
    cadence = 1;
    exact_limit = 12;
    alpha = 1.0;
    sweep_tol = 0.5;
    degree_samples = 8;
    stretch_sources = 2;
    stretch_targets = 8;
    stretch_factor = 4.0;
    seed = 0x0b5;
  }

type violation = {
  v_guarantee : guarantee;
  v_seq : int;
  v_time : int;
  v_node : int;
  v_bound : float;
  v_measured : float;
  v_detail : string;
}

type sample = { s_guarantee : guarantee; s_seq : int; s_time : int; s_value : float }

type event = Sample of sample | Violation of violation

(* Slot-indexed BFS scratch for one graph, kept across checks. Between
   traversals [dist] holds -1 at every slot. *)
type scratch = { mutable dist : int array; mutable queue : int array }

type t = {
  config : config;
  rng : Random.State.t;
  reference : Graph.t; (* insert-only shadow G'_t *)
  healed_sc : scratch;
  reference_sc : scratch;
  mutable ranks : int array; (* healed slots by id: ranks.(r) holds rank r *)
  counts : int array; (* the id sort's 256 digit counts *)
  mutable rev_events : event list;
  mutable num_events : int;
  mutable repairs : int;
  mutable checks : int;
  mutable reference_enumerations : int;
  mutable reference_sweeps : int;
  visited : int ref; (* slots labelled by the checks' traversals *)
  mutable num_violations : int;
  viol_by : int array; (* indexed by gindex *)
  first_sample : float option array;
  last_sample : float option array;
}

let n_guarantees = List.length all_guarantees

let create ?(config = default_config) g =
  let reject msg = invalid_arg ("Monitor.create: " ^ msg) in
  (* With kappa <= 0 the degree budget kappa*deg' + 2*kappa is <= 0, so
     every node with an edge would read as a Degree breach. *)
  if config.kappa < 1 then reject "kappa must be >= 1";
  if config.cadence < 1 then reject "cadence must be >= 1";
  if config.exact_limit > 22 then reject "exact_limit exceeds the Cuts enumeration cap (22)";
  List.iter
    (fun (field, v) -> if v < 0 then reject (field ^ " must be >= 0"))
    [
      ("degree_samples", config.degree_samples);
      ("stretch_sources", config.stretch_sources);
      ("stretch_targets", config.stretch_targets);
    ];
  (* Each of these would silently switch its check off: every
     comparison against NaN is false, and an expansion value is never
     negative, so a non-positive target min(alpha, h(G')) (alpha <= 0)
     or sweep target min(alpha, h(G'))*(1 - tol) (tol >= 1) never fires.
     The negated comparisons reject NaN too. *)
  if not (config.alpha > 0.0) then reject "alpha must be > 0";
  if not (config.sweep_tol >= 0.0 && config.sweep_tol < 1.0) then
    reject "sweep_tol must be in [0, 1)";
  (* An infinite factor makes every finite stretch pass, like NaN; a
     factor <= 0 clamps the bound to 1. *)
  if not (Float.is_finite config.stretch_factor && config.stretch_factor > 0.0) then
    reject "stretch_factor must be finite and > 0";
  {
    config;
    rng = Random.State.make [| config.seed |];
    reference = Graph.copy g;
    healed_sc = { dist = [||]; queue = [||] };
    reference_sc = { dist = [||]; queue = [||] };
    ranks = [||];
    counts = Array.make 256 0;
    rev_events = [];
    num_events = 0;
    repairs = 0;
    checks = 0;
    reference_enumerations = 0;
    reference_sweeps = 0;
    visited = ref 0;
    num_violations = 0;
    viol_by = Array.make n_guarantees 0;
    first_sample = Array.make n_guarantees None;
    last_sample = Array.make n_guarantees None;
  }
let repairs t = t.repairs
let checks_next t = (t.repairs + 1) mod t.config.cadence = 0
let checks t = t.checks
let num_events t = t.num_events
let num_violations t = t.num_violations
let events t = List.rev t.rev_events

let violations t =
  List.filter_map (function Violation v -> Some v | Sample _ -> None) (events t)

let push t e =
  t.rev_events <- e :: t.rev_events;
  t.num_events <- t.num_events + 1

let sample t ~guarantee ~seq ~time value =
  let i = gindex guarantee in
  (match t.first_sample.(i) with
  | None -> t.first_sample.(i) <- Some value
  | Some _ -> ());
  t.last_sample.(i) <- Some value;
  push t (Sample { s_guarantee = guarantee; s_seq = seq; s_time = time; s_value = value })

let violate t ~guarantee ~seq ~time ~node ~bound ~measured detail =
  t.num_violations <- t.num_violations + 1;
  t.viol_by.(gindex guarantee) <- t.viol_by.(gindex guarantee) + 1;
  push t
    (Violation
       {
         v_guarantee = guarantee;
         v_seq = seq;
         v_time = time;
         v_node = node;
         v_bound = bound;
         v_measured = measured;
         v_detail = detail;
       })

(* ------------------------------------------------------------------ *)
(* Shadow maintenance.                                                 *)

let on_insert t ~node ~neighbors =
  if not (Graph.has_node t.reference node) then begin
    Graph.add_node t.reference node;
    List.iter
      (fun u ->
        if u <> node && Graph.has_node t.reference u then
          ignore (Graph.add_edge t.reference node u))
      neighbors
  end

(* ------------------------------------------------------------------ *)
(* Flat scan kernel — the degree check's hot path.                    *)

(* Minimum degree-bound headroom over paired degree arrays: healed
   degree dh.(i) against the kappa*dr.(i)+2*kappa budget. Breaches are
   counted into the caller's [viols]; the (cold) caller re-scans to
   attach nodes and details to events. *)
let degree_scan dh dr len kappa viols = (* xlint: hot *)
  let worst = ref infinity in
  for i = 0 to len - 1 do
    let bound = (kappa * dr.(i)) + (2 * kappa) in
    let headroom = float_of_int (bound - dh.(i)) in
    if headroom < !worst then worst := headroom;
    if dh.(i) > bound then incr viols
  done;
  !worst

(* Which reference slots hold a node still alive in the healed graph.
   Read only once the healed graph has split. *)
let survivors (rv : Graph.view) healed =
  Array.init rv.Graph.v_used (fun s ->
      let u = rv.Graph.v_ids.(s) in
      u >= 0 && Graph.has_node healed u)

(* Whether any healed node is a node of the reference: stops at the
   first one. *)
let any_survivor (hv : Graph.view) reference =
  let rec from s =
    s < hv.Graph.v_used
    && ((hv.Graph.v_ids.(s) >= 0 && Graph.has_node reference hv.Graph.v_ids.(s)) || from (s + 1))
  in
  from 0

(* ------------------------------------------------------------------ *)
(* Guarantee checks, on the slot views of the healed graph and the
   reference and on the scratch each keeps across checks.              *)

(* Grows [sc] to cover the view's slots; fresh entries read -1. *)
let fit sc (v : Graph.view) =
  let cap = Array.length sc.dist in
  if v.Graph.v_used > cap then begin
    let cap = max v.Graph.v_used (2 * cap) in
    sc.dist <- Array.make cap (-1);
    sc.queue <- Array.make cap 0
  end

(* Each traversal runs on its graph's kept scratch and adds the slots
   it labels to [t.visited]. *)
let num_components t ?live v sc =
  Traversal.slot_num_components ?live v ~dist:sc.dist ~queue:sc.queue ~visited:t.visited

let distance t v sc s u =
  Traversal.slot_pair_distance v ~dist:sc.dist ~queue:sc.queue ~visited:t.visited s u

let bfs_sweep t v sc ~conductance src =
  let est = Cuts.slot_bfs_sweep v ~visit:sc.dist ~queue:sc.queue ~conductance src in
  t.visited := !(t.visited) + est.Cuts.reached;
  est

let check_degree t ~seq ~time ~touched ~healed =
  let live =
    List.filter (fun u -> Graph.has_node healed u && Graph.has_node t.reference u) touched
  in
  let len = List.length live in
  if len > 0 then begin
    let nodes = Array.of_list live in
    let dh = Array.map (Graph.degree healed) nodes in
    let dr = Array.map (Graph.degree t.reference) nodes in
    let viols = ref 0 in
    let worst = degree_scan dh dr len t.config.kappa viols in
    sample t ~guarantee:Degree ~seq ~time worst;
    if !viols > 0 then
      Array.iteri
        (fun i u ->
          let bound = (t.config.kappa * dr.(i)) + (2 * t.config.kappa) in
          if dh.(i) > bound then
            violate t ~guarantee:Degree ~seq ~time ~node:u ~bound:(float_of_int bound)
              ~measured:(float_of_int dh.(i))
              (Printf.sprintf "deg %d exceeds %d*%d+%d" dh.(i) t.config.kappa dr.(i)
                 (2 * t.config.kappa)))
        nodes
  end

(* The sweep path's healed half, run ahead of the connectivity check so
   that its BFS can settle connectivity: a sampled source slot and one
   BFS-order sweep from it. [None] below two healed nodes and on the
   exact path. *)
let healed_sweep t hv rv =
  let hn = hv.Graph.v_nodes in
  if hn < 2 || (hn <= t.config.exact_limit && rv.Graph.v_nodes <= t.config.exact_limit) then None
  else begin
    let src = t.ranks.(Random.State.int t.rng hn) in
    Some (src, bfs_sweep t hv t.healed_sc ~conductance:true src)
  end

(* A breach needs more healed components than live components of G'.
   A sweep BFS that reached every healed node shows one component.
   With at most one healed component a breach happens only when no
   node of G' is alive, and then G' has 0 live components; so they are
   counted only once the healed graph has split. *)
let check_connectivity t ~seq ~time ~healed hv rv sweep =
  let hc =
    match sweep with
    | Some (_, est) when est.Cuts.reached = hv.Graph.v_nodes -> 1
    | _ -> num_components t hv t.healed_sc
  in
  let rc =
    if hc >= 2 then num_components t ~live:(survivors rv healed) rv t.reference_sc
    else if hc = 1 && not (any_survivor hv t.reference) then 0
    else hc
  in
  sample t ~guarantee:Connectivity ~seq ~time (float_of_int hc);
  if hc > rc then
    violate t ~guarantee:Connectivity ~seq ~time ~node:(-1) ~bound:(float_of_int rc)
      ~measured:(float_of_int hc)
      (Printf.sprintf "%d components vs %d live components of G'" hc rc)

let check_expansion t ~seq ~time ~healed hv rv sweep =
  match sweep with
  | None ->
    if hv.Graph.v_nodes >= 2 then begin
      (* Small graphs: exact subset enumeration against the exact
         reference target — the degree-<=2 corner fires here. The
         target min(alpha, h(G')) never exceeds alpha, so G' is
         enumerated only when h1 sits below alpha: at or above it, h1
         passes whatever G' reads. *)
      let h1 = Cuts.exact_expansion healed in
      sample t ~guarantee:Expansion ~seq ~time h1;
      sample t ~guarantee:Conductance ~seq ~time (Cuts.exact_conductance healed);
      if h1 +. 1e-9 < t.config.alpha then begin
        t.reference_enumerations <- t.reference_enumerations + 1;
        let target = Float.min t.config.alpha (Cuts.exact_expansion t.reference) in
        if h1 +. 1e-9 < target then
          violate t ~guarantee:Expansion ~seq ~time ~node:(-1) ~bound:target ~measured:h1
            (Printf.sprintf "exact h %.6f below min(alpha, h(G')) %.6f" h1 target)
      end
    end
  | Some (s, est) ->
    (* Large graphs: BFS-order sweep estimates from one sampled source,
       on both the healed graph and the reference. Both sides are upper
       bounds, so the comparison keeps a wide tolerance — this is a
       tripwire for collapse, not a proof of the constant. Only the
       reference's expansion is read, and only below the ceiling
       alpha*(1-tol): min(alpha, h_ref)*(1-tol) never exceeds it, as
       rounding is monotone, so an estimate at or above it passes
       whatever the reference reads. *)
    let h_est = est.Cuts.expansion in
    sample t ~guarantee:Expansion ~seq ~time h_est;
    sample t ~guarantee:Conductance ~seq ~time est.Cuts.conductance;
    let src = hv.Graph.v_ids.(s) in
    let rs = Graph.slot_of t.reference src in
    if rs >= 0 && h_est +. 1e-9 < t.config.alpha *. (1.0 -. t.config.sweep_tol) then begin
      t.reference_sweeps <- t.reference_sweeps + 1;
      let h_ref = (bfs_sweep t rv t.reference_sc ~conductance:false rs).Cuts.expansion in
      let target = Float.min t.config.alpha h_ref *. (1.0 -. t.config.sweep_tol) in
      if h_est +. 1e-9 < target then
        violate t ~guarantee:Expansion ~seq ~time ~node:src ~bound:target ~measured:h_est
          (Printf.sprintf "sweep h %.6f below (1-tol)*min(alpha, sweep h(G')) %.6f" h_est target)
    end

(* Sampled pairs, healed distance against reference distance. Pairs
   the reference cannot connect are skipped — they are not "surviving
   pairs" — so the healed graph is searched only for a pair the
   reference connects; a pair only the healed graph cannot connect
   scores as infinite stretch. *)
let check_stretch t ~seq ~time hv rv =
  let hn = hv.Graph.v_nodes and rn = rv.Graph.v_nodes in
  if hn >= 2 && rn >= 2 then begin
    let bound =
      Float.max 1.0 (t.config.stretch_factor *. (Float.log (float_of_int hn) /. Float.log 2.0))
    in
    let worst = ref 1.0 in
    for _src = 1 to t.config.stretch_sources do
      let hs = t.ranks.(Random.State.int t.rng hn) in
      let s = hv.Graph.v_ids.(hs) in
      let rs = Graph.slot_of t.reference s in
      for _target = 1 to t.config.stretch_targets do
        let ht = t.ranks.(Random.State.int t.rng hn) in
        let u = hv.Graph.v_ids.(ht) in
        let rt = if rs >= 0 && u <> s then Graph.slot_of t.reference u else -1 in
        let rd = if rt >= 0 then distance t rv t.reference_sc rs rt else -1 in
        if rd > 0 then begin
          let hd = distance t hv t.healed_sc hs ht in
          if hd < 0 then begin
            worst := infinity;
            violate t ~guarantee:Stretch ~seq ~time ~node:u ~bound ~measured:infinity
              (Printf.sprintf "pair (%d,%d) connected in G' but not in healed graph" s u)
          end
          else begin
            let r = float_of_int hd /. float_of_int rd in
            if r > !worst then worst := r;
            if r > bound then
              violate t ~guarantee:Stretch ~seq ~time ~node:u ~bound ~measured:r
                (Printf.sprintf "dist %d vs %d in G' from %d" hd rd s)
          end
        end
      done
    done;
    sample t ~guarantee:Stretch ~seq ~time !worst
  end

(* A few RNG-sampled survivors widen the degree check beyond the nodes
   the repair touched. *)
let sampled_survivors t (hv : Graph.view) =
  let n = hv.Graph.v_nodes in
  List.init (min t.config.degree_samples n) (fun _ ->
      hv.Graph.v_ids.(t.ranks.(Random.State.int t.rng n)))

(* The checks read only the healed graph and the reference: a victim is
   simply a reference node missing from [healed]. *)
let on_delete t ~seq ~time ~victims:_ ~touched ~healed =
  t.repairs <- t.repairs + 1;
  if t.repairs mod t.config.cadence = 0 then begin
    t.checks <- t.checks + 1;
    let hv = Graph.view healed and rv = Graph.view t.reference in
    fit t.healed_sc hv;
    fit t.reference_sc rv;
    (* The healed queue is free between traversals: it is the sort's
       second buffer. *)
    if Array.length t.ranks < hv.Graph.v_nodes then
      t.ranks <- Array.make (Array.length t.healed_sc.queue) 0;
    Graph.slots_by_id healed ~order:t.ranks ~tmp:t.healed_sc.queue ~counts:t.counts;
    let extra = sampled_survivors t hv in
    check_degree t ~seq ~time ~touched:(touched @ extra) ~healed;
    let sweep = healed_sweep t hv rv in
    check_connectivity t ~seq ~time ~healed hv rv sweep;
    check_expansion t ~seq ~time ~healed hv rv sweep;
    check_stretch t ~seq ~time hv rv
  end

let note_phase t ~seq ~time ~phase ~rounds ~messages ~converged =
  if not converged then
    violate t ~guarantee:Convergence ~seq ~time ~node:(-1) ~bound:0.0
      ~measured:(float_of_int messages)
      (Printf.sprintf "phase %s did not quiesce after %d rounds" phase rounds)

(* Detection-latency guarantee: the failure detector promised to
   confirm a real crash within [Detect.latency_bound]; the engine
   reports each detector-triggered deletion here. A latency past the
   bound (or a miss, latency < 0 with bound >= 0) is a breach. *)
let note_detection t ~seq ~time ~victim ~latency ~bound =
  sample t ~guarantee:Detection ~seq ~time (float_of_int latency);
  if latency > bound || latency < 0 then
    violate t ~guarantee:Detection ~seq ~time ~node:victim ~bound:(float_of_int bound)
      ~measured:(float_of_int latency)
      (Printf.sprintf "detection latency %d vs bound %d for victim %d" latency bound victim)

(* ------------------------------------------------------------------ *)
(* Export.                                                             *)

let event_json = function
  | Sample s ->
    Jsonw.Obj
      [
        ("event", Jsonw.String "sample");
        ("guarantee", Jsonw.String (guarantee_to_string s.s_guarantee));
        ("seq", Jsonw.Int s.s_seq);
        ("time", Jsonw.Int s.s_time);
        ("value", Jsonw.Float s.s_value);
      ]
  | Violation v ->
    Jsonw.Obj
      [
        ("event", Jsonw.String "violation");
        ("guarantee", Jsonw.String (guarantee_to_string v.v_guarantee));
        ("seq", Jsonw.Int v.v_seq);
        ("time", Jsonw.Int v.v_time);
        ("node", Jsonw.Int v.v_node);
        ("bound", Jsonw.Float v.v_bound);
        ("measured", Jsonw.Float v.v_measured);
        ("detail", Jsonw.String v.v_detail);
      ]

let to_jsonl t =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string b (Jsonw.to_string (event_json e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let report_json t =
  let deltas =
    List.filter_map
      (fun g ->
        let i = gindex g in
        match (t.first_sample.(i), t.last_sample.(i)) with
        | Some first, Some last ->
          Some
            ( guarantee_to_string g,
              Jsonw.Obj [ ("first", Jsonw.Float first); ("last", Jsonw.Float last) ] )
        | _ -> None)
      all_guarantees
  in
  Jsonw.Obj
    [
      ("schema", Jsonw.String "xheal-monitor/1");
      ("repairs", Jsonw.Int t.repairs);
      ("checks", Jsonw.Int t.checks);
      ("events", Jsonw.Int t.num_events);
      ("violations", Jsonw.Int t.num_violations);
      ( "work",
        Jsonw.Obj
          [
            ("reference_enumerations", Jsonw.Int t.reference_enumerations);
            ("reference_sweeps", Jsonw.Int t.reference_sweeps);
            ("slots_visited", Jsonw.Int !(t.visited));
          ] );
      ( "by_guarantee",
        Jsonw.Obj
          (List.map
             (fun g -> (guarantee_to_string g, Jsonw.Int t.viol_by.(gindex g)))
             all_guarantees) );
      ("samples", Jsonw.Obj deltas);
    ]
