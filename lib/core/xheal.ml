module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Detect = Xheal_fault.Detect

type trigger = Oracle | Detector of Detect.t

let log_src = Logs.Src.create "xheal.engine" ~doc:"Xheal repair engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Edge ownership lives in two records: [black] holds the black edges
   (seed and inserted, minus deleted nodes) and each cloud's
   [Cloud.current] the edges it owns. [net] is exactly their union
   ([check]). *)
type t = {
  cfg : Config.t;
  rng : Random.State.t;
  net : Graph.t;
  black : Graph.t;
  reg : Registry.t;
  obs : Xheal_obs.Scope.t option;
  monitor : Xheal_obs.Monitor.t option;
  plan : Fault_plan.t;
  sched : Schedule.t;
  backend : Cost.backend option;
  mutable pricing_calls : int; (* monotone phase counter for backend reseeds *)
  mutable totals : Cost.totals;
  mutable last : Cost.report option;
  mutable seq : int;
}

let kappa t = Config.kappa t.cfg

let graph t = t.net

let totals t = t.totals

let last_report t = t.last

let clouds t = Registry.clouds t.reg

let num_clouds t = Registry.num_clouds t.reg

let is_free t u = Registry.is_free t.reg u

let is_black_edge t u v = Graph.has_edge t.black u v

(* The clouds whose [current] holds [e], ascending by id. Such a cloud
   has both ends as members, so the clouds of one end are the only
   candidates. *)
let holders t e =
  List.filter (fun c -> Edge.Set.mem e (Cloud.current c)) (Registry.clouds_of t.reg (Edge.src e))

let edge_cloud_owners t u v = List.map Cloud.id (holders t (Edge.make u v))

let find_cloud t id = Registry.find t.reg id

let clouds_of_node t u = Registry.clouds_of t.reg u

(* A plan/schedule pair is "faulty" when it can deviate from lossless
   synchronous delivery; only a pricing backend can price that. *)
let faulty plan sched = not (Fault_plan.is_none plan && Schedule.is_sync sched)

let create ?(cfg = Config.default) ?obs ?monitor ?(plan = Fault_plan.none)
    ?(schedule = Schedule.sync) ?backend ~rng g =
  (match Config.validate cfg with Ok () -> () | Error e -> invalid_arg ("Xheal.create: " ^ e));
  if faulty plan schedule && backend = None then
    invalid_arg "Xheal.create: a fault plan or async schedule requires a pricing backend";
  {
    cfg;
    rng;
    net = Graph.copy g;
    black = Graph.copy g;
    reg = Registry.create ();
    obs;
    monitor;
    plan;
    sched = schedule;
    backend;
    pricing_calls = 0;
    totals = Cost.zero_totals;
    last = None;
    seq = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-repair mutable context: the cost report under construction, and
   the combine forwarding list (dissolved cloud id, successor id), which
   the stitch reads to follow the clouds it captured before its own
   combines. It stays empty until a combine happens. *)

type ctx = { mutable report : Cost.report; mutable fwd : (int * int) list }

let charge ctx label (rounds, messages) =
  ctx.report <- Cost.add_phase ctx.report ~label ~rounds ~messages

(* ------------------------------------------------------------------ *)
(* Measured pricing. With a backend, protocol-backed phases are priced
   by driving the real protocols under the engine's plan (the
   synchronous fast path when it is lossless); without one, the closed
   forms apply. Splice-local operations too small to simulate (join /
   fix-cloud / find-free / leader-handoff) stay closed-form either way.
   The backend owns its randomness, so the healed graph never depends
   on how repairs are priced. *)

let next_phase t =
  t.pricing_calls <- t.pricing_calls + 1;
  t.pricing_calls

(* Every priced phase lands here, so this is where the monitor learns
   of a phase that failed to quiesce, keyed by the repair's [seq]. *)
let charge_measured t ctx label (m : Cost.measured) =
  charge ctx label (m.Cost.m_rounds, m.Cost.m_messages);
  ctx.report <- { ctx.report with Cost.measured = Cost.add_measured ctx.report.Cost.measured m };
  match t.monitor with
  | None -> ()
  | Some mon ->
    Xheal_obs.Monitor.note_phase mon ~seq:t.seq ~time:t.totals.Cost.total_rounds ~phase:label
      ~rounds:m.Cost.m_rounds ~messages:m.Cost.m_messages ~converged:m.Cost.m_converged

(* Election + H-graph build over one member set: the Case-1 primary
   rebuild and the secondary-cloud stitch both reduce to this pair. *)
let charge_elect_build t ctx ~elect_label ~build_label members =
  let k = List.length members in
  match t.backend with
  | None ->
    charge ctx elect_label (Cost.elect k);
    charge ctx build_label (Cost.distribute ~kappa:(Config.kappa t.cfg) k)
  | Some b ->
    let m_elect, leader =
      b.Cost.run_elect ~plan:t.plan ~schedule:t.sched ~phase:(next_phase t) ~members
    in
    charge_measured t ctx elect_label m_elect;
    let leader =
      match (leader, members) with
      | Some l, _ -> l
      | None, u :: _ -> u
      | None, [] -> -1
    in
    let m_build =
      b.Cost.run_build ~plan:t.plan ~schedule:t.sched ~phase:(next_phase t) ~leader ~members
    in
    charge_measured t ctx build_label m_build

(* Called before the merge: the backend's BFS-echo runs over each
   absorbed cloud's members and edges as they stand now. *)
let charge_combine t ctx prims ~size =
  match t.backend with
  | None -> charge ctx "combine" (Cost.combine ~kappa:(Config.kappa t.cfg) size)
  | Some b ->
    let clouds =
      List.map
        (fun c ->
          (Cloud.members c, List.map Edge.endpoints (Edge.Set.elements (Cloud.current c))))
        prims
    in
    let m =
      b.Cost.run_combine ~plan:t.plan ~schedule:t.sched ~phase:(next_phase t) ~clouds
    in
    charge_measured t ctx "combine" m

let note_edges ctx ~added ~removed =
  ctx.report <-
    {
      ctx.report with
      edges_added = ctx.report.Cost.edges_added + added;
      edges_removed = ctx.report.Cost.edges_removed + removed;
    }

let touch ctx = ctx.report <- { ctx.report with Cost.clouds_touched = ctx.report.Cost.clouds_touched + 1 }

let mark_combined ctx = ctx.report <- { ctx.report with Cost.combined = true }

(* ------------------------------------------------------------------ *)
(* Observability. The engine's clock is the cost model: span
   timestamps are the closed-form round charges accumulated so far, so
   a trace lays repairs out on the same timeline [Cost.totals] sums
   over. The tracer base is pinned to [totals.total_rounds] at the
   start of every repair, and spans inside one repair use the report's
   running round count as relative time. *)

(* Strictly increasing inclusive upper bounds; anything larger falls in
   the implicit overflow bucket. *)
let msg_buckets = [| 16; 64; 256; 1024; 4096; 16384 |]
let churn_buckets = [| 4; 16; 64; 256; 1024 |]

let obs_start_repair t =
  match t.obs with
  | None -> ()
  | Some sc ->
    (* Two-clock convention: this scope's timeline is the engine's
       cost-model rounds. A pricing backend sharing it would
       interleave Netsim virtual time — Tracer.check reports the mix. *)
    Xheal_obs.Tracer.claim_clock sc.Xheal_obs.Scope.tracer "engine-rounds";
    Xheal_obs.Tracer.set_base sc.Xheal_obs.Scope.tracer t.totals.Cost.total_rounds

let span t ctx name f =
  match t.obs with
  | None -> f ()
  | Some sc ->
    let tr = sc.Xheal_obs.Scope.tracer in
    Xheal_obs.Tracer.claim_clock tr "engine-rounds";
    Xheal_obs.Tracer.begin_span tr ~track:Xheal_obs.Tracer.control_track ~name
      ~now:ctx.report.Cost.rounds;
    let r = f () in
    Xheal_obs.Tracer.end_span tr ~track:Xheal_obs.Tracer.control_track
      ~now:ctx.report.Cost.rounds;
    r

(* Per-repair distributions and per-phase-label totals, recorded once
   per deletion at [finish]. *)
let observe_repair t ctx =
  match t.obs with
  | None -> ()
  | Some sc -> (
    match ctx.report.Cost.case with
    | Cost.Insertion -> ()
    | Cost.Case1 | Cost.Case21 | Cost.Case22 | Cost.Batch _ ->
      let reg = sc.Xheal_obs.Scope.metrics in
      let r = ctx.report in
      Xheal_obs.Metrics.observe
        (Xheal_obs.Metrics.histogram reg "xheal.repair.messages" ~buckets:msg_buckets)
        r.Cost.messages;
      Xheal_obs.Metrics.observe
        (Xheal_obs.Metrics.histogram reg "xheal.repair.edge_churn" ~buckets:churn_buckets)
        (r.Cost.edges_added + r.Cost.edges_removed);
      if r.Cost.combined then
        Xheal_obs.Metrics.incr (Xheal_obs.Metrics.counter reg "xheal.combines");
      List.iter
        (fun (p : Cost.phase) ->
          let c suffix =
            Xheal_obs.Metrics.counter reg ("xheal.phase." ^ p.Cost.label ^ "." ^ suffix)
          in
          Xheal_obs.Metrics.incr_by (c "messages") p.Cost.messages;
          Xheal_obs.Metrics.incr_by (c "rounds") p.Cost.rounds)
        r.Cost.phases)

(* ------------------------------------------------------------------ *)
(* Cloud/network reconciliation.                                      *)

(* A cloud released [e] (its [current] no longer holds it): the network
   drops the edge unless it is black or another cloud still holds it. *)
let drop_cloud_edge t e =
  let u = Edge.src e and v = Edge.dst e in
  if not (Graph.has_edge t.black u v || holders t e <> []) then
    ignore (Graph.remove_edge t.net u v)

(* Push a cloud's desired edge set to the network, diffing against what
   it last pushed. *)
let sync t ctx c =
  let desired = Cloud.desired_edges c in
  let cur = Cloud.current c in
  let removed = Edge.Set.diff cur desired and added = Edge.Set.diff desired cur in
  Cloud.set_current c desired;
  Edge.Set.iter (drop_cloud_edge t) removed;
  Edge.Set.iter (fun e -> ignore (Graph.add_edge t.net (Edge.src e) (Edge.dst e))) added;
  note_edges ctx ~added:(Edge.Set.cardinal added) ~removed:(Edge.Set.cardinal removed)

let make_cloud t ctx kind members =
  let id = Registry.fresh_id t.reg in
  let c = Cloud.make ~rng:t.rng ~id ~kind ~d:t.cfg.Config.d ~half_rebuild:t.cfg.Config.half_rebuild members in
  Registry.add_cloud t.reg c;
  sync t ctx c;
  touch ctx;
  c

(* Remove a cloud entirely: its edges lose this owner, its secondary
   links (if any) are cleared. Bridge duties of *members into other
   secondaries* are untouched. *)
let dissolve t ctx c =
  let id = Cloud.id c and cur = Cloud.current c in
  Cloud.set_current c Edge.Set.empty;
  Edge.Set.iter (drop_cloud_edge t) cur;
  note_edges ctx ~added:0 ~removed:(Edge.Set.cardinal cur);
  if Cloud.kind c = Cloud.Secondary then Registry.unlink_all t.reg ~secondary:id;
  Registry.remove_cloud t.reg id

let alive t c = Registry.find t.reg (Cloud.id c) <> None

let by_id a b = Int.compare (Cloud.id a) (Cloud.id b)

let same a b = Cloud.id a = Cloud.id b

(* A node joins an existing cloud (H-graph INSERT / clique growth). *)
let join t ctx c u =
  Cloud.add_member ~rng:t.rng c u;
  Registry.note_membership t.reg ~node:u ~cloud:(Cloud.id c);
  sync t ctx c;
  charge ctx "join" (Cost.splice ~kappa:(kappa t))

(* ------------------------------------------------------------------ *)
(* Deletion repair steps.                                             *)

(* A victim as the repair found it, before anything was removed. *)
type victim = {
  v : int;
  blacks : int list; (* black neighbours, ascending *)
  vclouds : Cloud.t list; (* ascending by id *)
  sec : Cloud.t option; (* the secondary it bridged in *)
  bridged : int option; (* the primary it bridged for *)
  mutable anchor : Cloud.t option; (* the primary [fix_secondary] anchored its group to *)
}

let capture t v =
  let vclouds = Registry.clouds_of t.reg v in
  let sec = List.find_opt (fun c -> Cloud.kind c = Cloud.Secondary) vclouds in
  let bridged =
    Option.bind sec (fun f -> Registry.primary_of_bridge t.reg ~secondary:(Cloud.id f) ~bridge:v)
  in
  { v; blacks = Graph.neighbors t.black v; vclouds; sec; bridged; anchor = None }

(* The adversary removed [victims]; splice every one of them out of
   one cloud that lost at least one. The cloud pays one splice, plus one
   leader handoff when a victim led it. *)
let fix_cloud_after_loss t ctx victims c =
  let was_leader =
    List.fold_left
      (fun was_leader x ->
        if not (Cloud.mem c x.v) then was_leader
        else begin
          Cloud.purge_node_from_current c x.v;
          Cloud.remove_member ~rng:t.rng c x.v || was_leader
        end)
      false victims
  in
  touch ctx;
  if Cloud.size c = 0 then dissolve t ctx c
  else begin
    sync t ctx c;
    charge ctx "fix-cloud" (Cost.splice ~kappa:(kappa t));
    if was_leader then charge ctx "leader-handoff" (Cost.leader_replace (Cloud.size c))
  end

(* After a combine produced primary [d_id], dissolve secondary clouds
   that now connect the combined cloud only to itself. Only secondaries
   holding one of [d_id]'s bridges can qualify; they are dissolved in
   ascending id order. *)
let prune_redundant_secondaries t ctx d_id =
  List.iter
    (fun s ->
      if List.for_all (fun (_, p) -> p = d_id) (Registry.bridges_of_secondary t.reg s) then
        dissolve t ctx (Registry.find_exn t.reg s))
    (List.sort_uniq Int.compare (List.map fst (Registry.secondaries_of_primary t.reg d_id)))

(* Combine a list of primary clouds (and their members) into a single
   fresh primary cloud — the paper's amortized expensive operation. *)
let combine_primaries t ctx prims =
  span t ctx "xheal:combine" (fun () ->
  mark_combined ctx;
  Log.info (fun m ->
      m "combining %d clouds (%d members total)" (List.length prims)
        (List.fold_left (fun acc c -> acc + Cloud.size c) 0 prims));
  let members = Hashtbl.create 64 in
  List.iter (fun c -> Cloud.iter_members c (fun u -> Hashtbl.replace members u ())) prims;
  let member_list = List.sort Int.compare (Hashtbl.fold (fun u () acc -> u :: acc) members []) in
  charge_combine t ctx prims ~size:(List.length member_list);
  let d = make_cloud t ctx Cloud.Primary member_list in
  List.iter
    (fun c ->
      Registry.retarget_primary t.reg ~old_primary:(Cloud.id c) ~new_primary:(Cloud.id d);
      ctx.fwd <- (Cloud.id c, Cloud.id d) :: ctx.fwd;
      dissolve t ctx c)
    prims;
  prune_redundant_secondaries t ctx (Cloud.id d);
  d)

(* Stitch the given units (live primary clouds, plus a singleton for
   each live black neighbour no unit holds) together with a new
   secondary cloud, per Algorithm 3.4/3.6: one distinct free node per
   unit, sharing when a unit has none, combining when the global free
   supply is short. *)
let make_secondary t ctx unit_clouds black_nbrs =
  let covered u = List.exists (fun c -> Cloud.mem c u) unit_clouds in
  let lone_blacks = List.filter (fun u -> Graph.has_node t.net u && not (covered u)) black_nbrs in
  let unit_count = List.length unit_clouds + List.length lone_blacks in
  if unit_count >= 2 then begin
    let singletons = List.map (fun u -> make_cloud t ctx Cloud.Primary [ u ]) lone_blacks in
    let units = unit_clouds @ singletons in
    if not t.cfg.Config.secondary_clouds then ignore (combine_primaries t ctx units)
    else begin
      let with_frees =
        List.map (fun c -> (Cloud.id c, Registry.free_members t.reg c)) units
      in
      charge ctx "find-free" (Cost.find_free (List.length units));
      match Matching.assign_bridges ~units:with_frees with
      | None -> ignore (combine_primaries t ctx units)
      | Some assignment ->
        (* Shared free nodes first join the cloud they will represent. *)
        List.iter
          (fun (cid, f) ->
            let c = Registry.find_exn t.reg cid in
            if not (Cloud.mem c f) then join t ctx c f)
          assignment;
        let bridges = List.map snd assignment in
        Log.debug (fun m ->
            m "secondary cloud over bridges [%s]"
              (String.concat ";" (List.map string_of_int bridges)));
        let sec = make_cloud t ctx Cloud.Secondary bridges in
        List.iter
          (fun (cid, f) -> Registry.link t.reg ~secondary:(Cloud.id sec) ~bridge:f ~primary:cid)
          assignment;
        charge_elect_build t ctx ~elect_label:"elect-secondary" ~build_label:"build-secondary"
          bridges
    end
  end

(* Case 2.2: replace the deleted bridge of primary [ci_id] inside the
   secondary cloud [f]. Returns the primary cloud that now anchors the
   deleted node's F-side group (for the follow-up stitch), if any. *)
let fix_secondary t ctx f ci_id =
  if not (alive t f) then None
  else begin
    let f_id = Cloud.id f in
    let anchor = Option.bind ci_id (Registry.find t.reg) in
    match anchor with
    | None ->
      (* The bridge's primary vanished with the deletion; F needs no
         replacement bridge for it. Any primary still linked in F anchors
         the group. *)
      Option.bind
        (List.nth_opt (Registry.bridges_of_secondary t.reg f_id) 0)
        (fun (_, p) -> Registry.find t.reg p)
    | Some ci -> (
      charge ctx "find-free" (Cost.find_free 1);
      let pick_free c =
        let frees = Registry.free_members t.reg c in
        match frees with
        | [] -> None
        | fs -> Some (List.nth fs (Random.State.int t.rng (List.length fs)))
      in
      match pick_free ci with
      | Some z ->
        Cloud.add_member ~rng:t.rng f z;
        Registry.note_membership t.reg ~node:z ~cloud:f_id;
        Registry.link t.reg ~secondary:f_id ~bridge:z ~primary:(Cloud.id ci);
        sync t ctx f;
        charge ctx "fix-secondary" (Cost.splice ~kappa:(kappa t));
        Some ci
      | None -> (
        (* Share a free node from another primary of F. *)
        let others =
          List.filter_map
            (fun (_, p) -> if p = Cloud.id ci then None else Registry.find t.reg p)
            (Registry.bridges_of_secondary t.reg f_id)
        in
        let shared =
          List.fold_left
            (fun acc c -> match acc with Some _ -> acc | None -> pick_free c)
            None others
        in
        match shared with
        | Some w ->
          join t ctx ci w;
          Cloud.add_member ~rng:t.rng f w;
          Registry.note_membership t.reg ~node:w ~cloud:f_id;
          Registry.link t.reg ~secondary:f_id ~bridge:w ~primary:(Cloud.id ci);
          sync t ctx f;
          charge ctx "fix-secondary-shared" (Cost.splice ~kappa:(kappa t));
          Some ci
        | None ->
          (* No free node among all of F's primaries: combine them all
             into one primary cloud and dissolve F. *)
          let prims =
            List.sort_uniq by_id
              (List.filter_map
                 (fun (_, p) -> Registry.find t.reg p)
                 (Registry.bridges_of_secondary t.reg f_id))
          in
          let prims = if List.exists (same ci) prims then prims else ci :: prims in
          dissolve t ctx f;
          Some (combine_primaries t ctx prims)))
  end

(* ------------------------------------------------------------------ *)
(* The adversary's two moves.                                         *)

(* Physical removal: the node and its edges in both graphs, its duties
   and its memberships. *)
let remove_node t v =
  Graph.remove_node t.net v;
  Graph.remove_node t.black v;
  Registry.remove_node t.reg v

let finish t ctx ~black_degree =
  observe_repair t ctx;
  t.totals <- Cost.accumulate t.totals ctx.report ~black_degree;
  t.last <- Some ctx.report

(* The monitor seam is strictly passive: notifications fire after the
   repair is fully accounted, read the healed graph without mutating
   it, and nothing below ever touches [t.rng] — a [None] monitor is
   bit-identical to a build without the seam. *)
let monitor_delete t victims ~touched =
  match t.monitor with
  | None -> ()
  | Some m ->
    Xheal_obs.Monitor.on_delete m ~seq:t.seq ~time:t.totals.Cost.total_rounds
      ~victims:(List.map (fun x -> x.v) victims) ~touched ~healed:(graph t)

(* Whether the monitor checks the repair about to run: only a checked
   repair reads the touched set, so it is captured only then. *)
let monitor_checks_next t =
  match t.monitor with None -> false | Some m -> Xheal_obs.Monitor.checks_next m

(* Nodes a repair involves, for the monitor's degree spot-check: the
   victims' black neighbours plus every member of their clouds,
   captured before removal. *)
let monitor_touched victims =
  List.sort_uniq Int.compare
    (List.concat_map (fun x -> x.blacks @ List.concat_map Cloud.members x.vclouds) victims)

(* ------------------------------------------------------------------ *)
(* Detector-triggered deletion. Under [Detector cfg] the engine no
   longer tells the neighbourhood who died: the backend runs the real
   heartbeat {!Failure_detector} protocol over the NoN clique of the
   victim and its neighbours (captured before removal), the simulator
   bill lands in the report as a "detect" phase, and the repair only
   proceeds if the monitors actually confirmed the death. All of this
   is reached only on the detector path; an [Oracle] delete never runs
   it. *)

let detect_buckets = [| 4; 8; 16; 32; 64; 128 |]

let observe_detection t (o : Detect.outcome) =
  match t.obs with
  | None -> ()
  | Some sc ->
    let reg = sc.Xheal_obs.Scope.metrics in
    if o.Detect.detected then
      Xheal_obs.Metrics.observe
        (Xheal_obs.Metrics.histogram reg "xheal.detect.latency" ~buckets:detect_buckets)
        o.Detect.latency;
    let bump name v =
      Xheal_obs.Metrics.incr_by (Xheal_obs.Metrics.counter reg ("xheal.detect." ^ name)) v
    in
    bump "suspicions" o.Detect.suspicions;
    bump "refutations" o.Detect.refutations;
    bump "confirmations" o.Detect.confirmations

(* Returns whether the death was confirmed — [false] aborts the repair
   upstream. The detection-latency guarantee is fed to the monitor only
   on confirmation: an undetected crash has no latency to bound. *)
let run_detection t ctx b ~victim cfg =
  let peers = Graph.neighbors (graph t) victim in
  let m, o =
    b.Cost.run_detect ~plan:t.plan ~schedule:t.sched ~phase:(next_phase t) ~victim
      ~peers ~config:cfg
  in
  charge_measured t ctx "detect" m;
  observe_detection t o;
  (match t.monitor with
  | Some mon when o.Detect.detected ->
    let bound = Detect.latency_bound cfg ~fairness:(Schedule.fairness t.sched) in
    Xheal_obs.Monitor.note_detection mon ~seq:t.seq ~time:t.totals.Cost.total_rounds
      ~victim ~latency:o.Detect.latency ~bound
  | _ -> ());
  Log.debug (fun mf ->
      mf "detect %d: %s (latency %d, %d suspicions, %d refutations)" victim
        (if o.Detect.detected then "confirmed" else "undetected")
        o.Detect.latency o.Detect.suspicions o.Detect.refutations);
  o.Detect.detected

let insert t ~node ~neighbors =
  if Graph.has_node (graph t) node then invalid_arg "Xheal.insert: node already present";
  (* Before the sequence bump: a rejected (negative) id leaves the
     engine untouched. *)
  Graph.add_node t.net node;
  Graph.add_node t.black node;
  t.seq <- t.seq + 1;
  List.iter
    (fun u ->
      if Graph.has_node t.net u && u <> node then begin
        ignore (Graph.add_edge t.net node u);
        ignore (Graph.add_edge t.black node u)
      end)
    neighbors;
  let ctx = { report = Cost.empty_report ~seq:t.seq Cost.Insertion; fwd = [] } in
  finish t ctx ~black_degree:0;
  match t.monitor with
  | None -> ()
  | Some m ->
    (* [node] is present by now, so re-filtering against the healed
       graph reproduces exactly the neighbour set that took effect. *)
    Xheal_obs.Monitor.on_insert m ~node
      ~neighbors:(List.filter (fun u -> Graph.has_node (graph t) u && u <> node) neighbors)

(* ------------------------------------------------------------------ *)
(* Deletion repair. One victim is the paper's Algorithm 3.1. Several
   victims in one timestep are its multi-deletion extension (Section 1:
   "Our algorithm can be extended to handle multiple
   insertions/deletions"), run by the same steps over the victim list:
   splice each cloud that lost a victim once, re-anchor each broken
   secondary, then stitch each damage region by the single-deletion
   rules over the region's merged inputs. *)

(* The union of two lists sorted by [cmp], without duplicates; a list
   merged with [[]] comes back as it is. *)
let rec merge cmp a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    let c = cmp x y in
    if c < 0 then x :: merge cmp a' b
    else if c > 0 then y :: merge cmp a b'
    else x :: merge cmp a' b'

(* One sorted field merged over several victims. *)
let rec merged cmp field = function
  | [] -> []
  | x :: rest -> merge cmp (field x) (merged cmp field rest)

(* The live cloud a captured cloud id became: itself, or the successor
   the repair's combines forwarded it to. Each combine maps to a fresh,
   larger id, so every chain ends. *)
let rec successor t ctx id =
  match Registry.find t.reg id with
  | Some c -> Some c
  | None -> (
    match List.find_opt (fun (old, _) -> old = id) ctx.fwd with
    | Some (_, d) -> successor t ctx d
    | None -> None)

(* Re-anchor each victim's secondary, in victim order. *)
let rec reanchor t ctx = function
  | [] -> ()
  | x :: rest ->
    (match x.sec with Some f -> x.anchor <- fix_secondary t ctx f x.bridged | None -> ());
    reanchor t ctx rest

(* Two victims share a damage region when they are black-adjacent, or
   share a black neighbour, a cloud or an anchor. *)
let shares a b =
  let ids x = List.map Cloud.id (Option.to_list x.anchor @ x.vclouds) in
  List.mem b.v a.blacks
  || List.exists (fun u -> List.mem u b.blacks) a.blacks
  || List.exists (fun c -> List.mem c (ids b)) (ids a)

let rec root parent i = if parent.(i) = i then i else root parent parent.(i)

(* The damage regions: a union-find over victim indices, each region in
   victim order, regions ordered by their first victim. A lone victim is
   its own region. *)
let regions = function
  | [ _ ] as lone -> [ lone ]
  | victims ->
    let vs = Array.of_list victims in
    let n = Array.length vs in
    let parent = Array.init n Fun.id in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if shares vs.(i) vs.(j) then begin
          (* The smaller root wins, so a region's root is its first victim. *)
          let ri = root parent i and rj = root parent j in
          parent.(max ri rj) <- min ri rj
        end
      done
    done;
    let groups = Array.make n [] in
    for j = n - 1 downto 0 do
      let r = root parent j in
      groups.(r) <- vs.(j) :: groups.(r)
    done;
    List.filter (fun g -> g <> []) (Array.to_list groups)

(* The region's anchors in victim order, each as its live successor,
   once. *)
let rec anchors t ctx acc = function
  | [] -> List.rev acc
  | x :: rest ->
    let a = match x.anchor with Some a -> successor t ctx (Cloud.id a) | None -> None in
    anchors t ctx
      (match a with Some a when not (List.exists (same a) acc) -> a :: acc | _ -> acc)
      rest

(* Whether a live secondary that one of [region]'s victims bridged in
   still links primary [c]. *)
let rec still_linked t c = function
  | [] -> false
  | x :: rest -> (
    match x.sec with
    | Some f when alive t f ->
      List.exists (fun (_, p) -> p = Cloud.id c) (Registry.bridges_of_secondary t.reg (Cloud.id f))
      || still_linked t c rest
    | _ -> still_linked t c rest)

(* Stitch one damage region over its live black neighbours: Case 1 when
   none of its victims was in a cloud; otherwise a secondary over the
   anchors, then every other primary the region lost a member of that
   no live re-anchored secondary still links, ascending by id. *)
let stitch t ctx region =
  let blacks = merged Int.compare (fun x -> x.blacks) region in
  if List.for_all (fun x -> x.vclouds = []) region then begin
    let orphans = List.filter (Graph.has_node t.net) blacks in
    if List.compare_length_with orphans 2 >= 0 then begin
      charge_elect_build t ctx ~elect_label:"elect-primary" ~build_label:"build-primary" orphans;
      ignore (make_cloud t ctx Cloud.Primary orphans)
    end
  end
  else begin
    let anchors = anchors t ctx [] region in
    let other c =
      if Cloud.kind c <> Cloud.Primary then None
      else
        match successor t ctx (Cloud.id c) with
        | Some c' when not (List.exists (same c') anchors || still_linked t c' region) -> Some c'
        | _ -> None
    in
    let others =
      List.sort_uniq by_id (List.filter_map other (merged by_id (fun x -> x.vclouds) region))
    in
    make_secondary t ctx (anchors @ others) blacks
  end

(* The backend and detector a trigger confirms crashes with, [None]
   for the oracle. Resolved before a repair claims a seq or the tracer,
   so a rejected call leaves the engine untouched. *)
let detection t ~who = function
  | Oracle -> None
  | Detector cfg -> (
    match t.backend with
    | Some b -> Some (b, cfg)
    | None -> invalid_arg (who ^ ": a Detector trigger requires a pricing backend"))

(* The repair of [victims]: sorted, distinct, present and non-empty. *)
let repair t ~detect victims =
  t.seq <- t.seq + 1;
  let captured = List.map (capture t) victims in
  let case =
    match captured with
    | [ { sec = Some _; _ } ] -> Cost.Case22
    | [ { vclouds = []; _ } ] -> Cost.Case1
    | [ _ ] -> Cost.Case21
    | _ -> Cost.Batch (List.length captured)
  in
  Log.debug (fun m ->
      m "delete [%s]: %s"
        (String.concat ";" (List.map (fun x -> string_of_int x.v) captured))
        (Cost.case_to_string case));
  let ctx = { report = Cost.empty_report ~seq:t.seq case; fwd = [] } in
  obs_start_repair t;
  (* Under a detector each crash is confirmed by its own neighbourhood;
     an unconfirmed victim stays in the graph untouched. *)
  let confirmed =
    match detect with
    | None -> captured
    | Some (b, cfg) ->
      span t ctx "xheal:detect" (fun () ->
          List.filter (fun x -> run_detection t ctx b ~victim:x.v cfg) captured)
  in
  match confirmed with
  | [] ->
    (* The network never learns of a crash, so no repair fires: no
       clouds, no monitor event, only the detection attempts billed. *)
    finish t ctx ~black_degree:0
  | _ ->
    let touched = if monitor_checks_next t then monitor_touched confirmed else [] in
    span t ctx "xheal:delete" (fun () ->
        List.iter (fun x -> remove_node t x.v) confirmed;
        (* Each splice draws from [t.rng]: ascending cloud id keeps the
           draw sequence seeded. *)
        span t ctx "xheal:phase1" (fun () ->
            List.iter (fix_cloud_after_loss t ctx confirmed)
              (merged by_id (fun x -> x.vclouds) confirmed));
        span t ctx "xheal:phase2" (fun () ->
            reanchor t ctx confirmed;
            List.iter (stitch t ctx) (regions confirmed)));
    finish t ctx ~black_degree:(List.fold_left (fun acc x -> acc + List.length x.blacks) 0 confirmed);
    (* A batch is one report but as many deletions. *)
    (match confirmed with
    | [ _ ] -> ()
    | _ ->
      t.totals <-
        { t.totals with Cost.deletions = t.totals.Cost.deletions + List.length confirmed - 1 });
    monitor_delete t confirmed ~touched

let delete ?(trigger = Oracle) t v =
  if not (Graph.has_node (graph t) v) then invalid_arg "Xheal.delete: node not present";
  let detect = detection t ~who:"Xheal.delete" trigger in
  repair t ~detect [ v ]

let delete_many ?(trigger = Oracle) t victims =
  let detect = detection t ~who:"Xheal.delete_many" trigger in
  match List.filter (Graph.has_node (graph t)) (List.sort_uniq Int.compare victims) with
  | [] -> ()
  | victims -> repair t ~detect victims

(* ------------------------------------------------------------------ *)

let check t =
  let ( let* ) r f = Result.bind r f in
  let* () = Registry.check t.reg in
  let g = graph t in
  let has g e = Graph.has_edge g (Edge.src e) (Edge.dst e) in
  let rec check_clouds = function
    | [] -> Ok ()
    | c :: rest ->
      let* () = Cloud.check c in
      let desired = Cloud.desired_edges c in
      if not (Edge.Set.equal desired (Cloud.current c)) then
        Error (Printf.sprintf "cloud %d: unsynced edges" (Cloud.id c))
      else begin
        let missing = Edge.Set.filter (fun e -> not (has g e)) desired in
        if not (Edge.Set.is_empty missing) then
          Error
            (Printf.sprintf "cloud %d: %d desired edges missing from the network" (Cloud.id c)
               (Edge.Set.cardinal missing))
        else check_clouds rest
      end
  in
  let* () = check_clouds (clouds t) in
  (* The network is exactly the black subgraph plus every cloud's
     current set: the clouds' edges lie in it (above), so do the black
     ones, the node sets agree, and the edge count leaves room for
     nothing else. *)
  let* () =
    let cloud_only =
      List.fold_left
        (fun acc c ->
          Edge.Set.union acc (Edge.Set.filter (fun e -> not (has t.black e)) (Cloud.current c)))
        Edge.Set.empty (clouds t)
    in
    let same_nodes =
      Graph.fold_nodes
        (fun u ok -> ok && Graph.has_node g u)
        t.black
        (Graph.num_nodes t.black = Graph.num_nodes g)
    in
    if not same_nodes then Error "black subgraph and network differ in their nodes"
    else if not (Graph.fold_edges (fun e ok -> ok && has g e) t.black true) then
      Error "a black edge is missing from the network"
    else if Graph.num_edges g <> Graph.num_edges t.black + Edge.Set.cardinal cloud_only then
      Error
        (Printf.sprintf "network has %d edges, not %d black plus %d held only by clouds"
           (Graph.num_edges g) (Graph.num_edges t.black) (Edge.Set.cardinal cloud_only))
    else Ok ()
  in
  (* Every cloud member is a live node. *)
  let dead = ref None in
  List.iter
    (fun c ->
      Cloud.iter_members c (fun u ->
          if not (Graph.has_node g u) && !dead = None then
            dead := Some (Printf.sprintf "cloud %d contains dead node %d" (Cloud.id c) u)))
    (clouds t);
  match !dead with Some e -> Error e | None -> Ok ()

let factory ?(cfg = Config.default) () =
  let label =
    Printf.sprintf "xheal(k=%d%s%s)" (Config.kappa cfg)
      (if cfg.Config.secondary_clouds then "" else ",always-combine")
      (if cfg.Config.half_rebuild then "" else ",no-rebuild")
  in
  {
    Healer.label;
    make =
      (fun ~rng g ->
        let t = create ~cfg ~rng g in
        {
          Healer.name = label;
          graph = (fun () -> graph t);
          insert = (fun ~node ~neighbors -> insert t ~node ~neighbors);
          delete = (fun v -> delete t v);
          totals = (fun () -> totals t);
          last_report = (fun () -> last_report t);
          check = (fun () -> check t);
        });
  }
