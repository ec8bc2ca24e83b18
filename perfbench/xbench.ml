(* One benchmark process: set up one workload from a seed, run its fixed
   attack once, audit the healed network, and print one JSON line with
   the simulated outputs (exact per seed) and the host measurements.
   run.py starts several of these per run and reports medians across
   them; NOTES.md says why.

   With --trace FILE the process also records a span around every call
   the benchmark makes into a layer (Xheal.delete / insert, the four
   Cost.backend closures, Monitor.on_delete / on_insert) and prints the
   per-layer split. Spans live in memory and are written to FILE at the
   end. *)

module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Cloud = Xheal_core.Cloud
module Detect = Xheal_fault.Detect
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Monitor = Xheal_obs.Monitor
module Jsonw = Xheal_obs.Jsonw

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let minor_words () = int_of_float (Gc.minor_words ())

let heap_bytes words = words * (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Workloads. Attack lengths are fixed, not timed, so messages, rounds,
   heap words and the healed graph repeat exactly per seed.            *)

type workload = {
  name : string;
  n : int;
  deletions : int;
  churn : bool;  (** One insertion with 3 live neighbours after each deletion. *)
  lossy : bool;
      (** Detector trigger, drop 0.05 under async fairness 2, priced by
          Pricing.backend; otherwise Oracle trigger and closed forms. *)
  cadence : int option;  (** Monitor attached at this check cadence. *)
}

let workloads =
  [
    { name = "churn-100k"; n = 100_000; deletions = 12_000; churn = true; lossy = false; cadence = None };
    { name = "lossy-detect-100k"; n = 100_000; deletions = 6_000; churn = false; lossy = true; cadence = None };
    { name = "monitored-10k"; n = 10_000; deletions = 1_500; churn = true; lossy = false; cadence = Some 50 };
  ]

let insert_degree = 3

(* ------------------------------------------------------------------ *)
(* Span store: parallel int arrays, grown by doubling, so recording a
   span allocates nothing except when the arrays grow.                *)

let k_delete = 0
let k_insert = 1
let k_detect = 2
let k_elect = 3
let k_build = 4
let k_combine = 5
let k_capture = 6
let k_mon_delete = 7
let k_mon_insert = 8

let kind_names =
  [|
    "engine.delete"; "engine.insert"; "pricing.detect"; "pricing.elect"; "pricing.build";
    "pricing.combine"; "monitor.capture"; "monitor.on_delete"; "monitor.on_insert";
  |]

let phase_kinds = [ ("detect", k_detect); ("elect", k_elect); ("build", k_build); ("combine", k_combine) ]

type trace = {
  mutable len : int;
  mutable kind : int array;
  mutable seq : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : int array;
  mutable w1 : int array;
  mutable current : int;  (** Innermost open span, -1 at top level. *)
  mutable step_seq : int;  (** Mirrors the engine's repair sequence number. *)
  measured : Cost.measured array;  (** Summed bills per pricing kind. *)
  converged : int array;
  mutable confirmed : int;
  mutable suspicions : int;
  mutable refutations : int;
  mutable latency_sum : int;
  mutable combined : int list;  (** Delete spans whose report says [combined]. *)
  mutable clouds_touched : int;
  mutable checking : int list;  (** Monitor spans that ran a guarantee check. *)
}

let trace_create () =
  let cap = 1 lsl 16 in
  {
    len = 0;
    kind = Array.make cap 0;
    seq = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0;
    w1 = Array.make cap 0;
    current = -1;
    step_seq = 0;
    measured = Array.make (Array.length kind_names) Cost.zero_measured;
    converged = Array.make (Array.length kind_names) 0;
    confirmed = 0;
    suspicions = 0;
    refutations = 0;
    latency_sum = 0;
    combined = [];
    clouds_touched = 0;
    checking = [];
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let enter tr k =
  if tr.len = Array.length tr.kind then begin
    tr.kind <- grow tr.kind;
    tr.seq <- grow tr.seq;
    tr.parent <- grow tr.parent;
    tr.t0 <- grow tr.t0;
    tr.t1 <- grow tr.t1;
    tr.w0 <- grow tr.w0;
    tr.w1 <- grow tr.w1
  end;
  let i = tr.len in
  tr.len <- i + 1;
  tr.kind.(i) <- k;
  tr.seq.(i) <- tr.step_seq;
  tr.parent.(i) <- tr.current;
  tr.current <- i;
  tr.w0.(i) <- minor_words ();
  tr.t0.(i) <- now_ns ();
  i

let leave tr i =
  tr.t1.(i) <- now_ns ();
  tr.w1.(i) <- minor_words ();
  tr.current <- tr.parent.(i)

let note_bill tr k (m : Cost.measured) =
  tr.measured.(k) <- Cost.add_measured tr.measured.(k) m;
  if m.Cost.m_converged then tr.converged.(k) <- tr.converged.(k) + 1

(* The pricing backend the engine calls, re-wrapped so each closure is
   a child span of the deletion that called it. *)
let traced_backend tr (b : Cost.backend) =
  {
    Cost.run_elect =
      (fun ~plan ~schedule ~phase ~members ->
        let i = enter tr k_elect in
        let ((m, _) as r) = b.Cost.run_elect ~plan ~schedule ~phase ~members in
        leave tr i;
        note_bill tr k_elect m;
        r);
    run_build =
      (fun ~plan ~schedule ~phase ~leader ~members ->
        let i = enter tr k_build in
        let m = b.Cost.run_build ~plan ~schedule ~phase ~leader ~members in
        leave tr i;
        note_bill tr k_build m;
        m);
    run_combine =
      (fun ~plan ~schedule ~phase ~clouds ->
        let i = enter tr k_combine in
        let m = b.Cost.run_combine ~plan ~schedule ~phase ~clouds in
        leave tr i;
        note_bill tr k_combine m;
        m);
    run_detect =
      (fun ~plan ~schedule ~phase ~victim ~peers ~config ->
        let i = enter tr k_detect in
        let ((m, o) as r) = b.Cost.run_detect ~plan ~schedule ~phase ~victim ~peers ~config in
        leave tr i;
        note_bill tr k_detect m;
        if o.Detect.detected then begin
          tr.confirmed <- tr.confirmed + 1;
          tr.latency_sum <- tr.latency_sum + o.Detect.latency
        end;
        tr.suspicions <- tr.suspicions + o.Detect.suspicions;
        tr.refutations <- tr.refutations + o.Detect.refutations;
        r);
  }

(* ------------------------------------------------------------------ *)
(* Set-up.                                                             *)

type setup = {
  eng : Xheal.t;
  trigger : Xheal.trigger;
  monitor : Monitor.t option;
  driven : bool;  (** The benchmark, not the engine seam, notifies [monitor]. *)
  generate_ns : int;
  create_ns : int;
  monitor_ns : int;
  setup_heap_words : int;
}

(* Every random stream of an instance derives from (seed, instance). *)
let rng ~seed ~instance tag = Random.State.make [| tag; seed; instance |]

let sub_seed ~seed ~instance tag = Hashtbl.hash (tag, seed, instance)

let setup w ~seed ~instance ~tr =
  let rng = rng ~seed ~instance and sub_seed = sub_seed ~seed ~instance in
  let d = Xheal_core.Config.default.Xheal_core.Config.d in
  let t0 = now_ns () in
  let g = Gen.random_h_graph ~rng:(rng 1) w.n 2 in
  let t1 = now_ns () in
  let monitor =
    Option.map
      (fun cadence ->
        Monitor.create
          ~config:
            {
              Monitor.default_config with
              Monitor.kappa = Xheal_core.Config.kappa Xheal_core.Config.default;
              cadence;
              seed = sub_seed 4;
            }
          g)
      w.cadence
  in
  let t2 = now_ns () in
  let driven = Option.is_some tr in
  let eng, trigger =
    if w.lossy then
      let plan = Fault_plan.make ~seed:(sub_seed 5) ~drop:0.05 () in
      let schedule = Schedule.async ~seed:(sub_seed 6) ~fairness:2 in
      let backend = Pricing.backend ~seed:(sub_seed 7) ~d () in
      let backend = match tr with Some tr -> traced_backend tr backend | None -> backend in
      ( Xheal.create ~plan ~schedule ~backend ~rng:(rng 2) g,
        Xheal.Detector (Detect.make ~seed:(sub_seed 8) ()) )
    else
      let monitor = if driven then None else monitor in
      (Xheal.create ?monitor ~rng:(rng 2) g, Xheal.Oracle)
  in
  let t3 = now_ns () in
  {
    eng;
    trigger;
    monitor;
    driven;
    generate_ns = t1 - t0;
    create_ns = t3 - t2;
    monitor_ns = t2 - t1;
    setup_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* ------------------------------------------------------------------ *)
(* The attack. Victims come from a swap-remove alive array (O(1) per
   pick) and insertion neighbours from the same array, drawn from the
   attack RNG between the timed calls.                                 *)

(* What the engine seam hands the monitor for a deletion: the victim's
   black neighbours plus its clouds' members, captured before removal. *)
let touched eng v =
  let blacks = List.filter (fun u -> Xheal.is_black_edge eng v u) (Graph.neighbors (Xheal.graph eng) v) in
  List.sort_uniq Int.compare (blacks @ List.concat_map Cloud.members (Xheal.clouds_of_node eng v))

let traced_delete s tr v =
  let mon = if s.driven then s.monitor else None in
  tr.step_seq <- tr.step_seq + 1;
  let touched =
    match mon with
    | None -> []
    | Some _ ->
      let i = enter tr k_capture in
      let t = touched s.eng v in
      leave tr i;
      t
  in
  let i = enter tr k_delete in
  Xheal.delete ~trigger:s.trigger s.eng v;
  leave tr i;
  let r = Option.get (Xheal.last_report s.eng) in
  assert (r.Cost.seq = tr.step_seq);
  if r.Cost.combined then tr.combined <- i :: tr.combined;
  tr.clouds_touched <- tr.clouds_touched + r.Cost.clouds_touched;
  match mon with
  | Some m when not (Graph.has_node (Xheal.graph s.eng) v) ->
    let checks = Monitor.checks m in
    let j = enter tr k_mon_delete in
    Monitor.on_delete m ~seq:r.Cost.seq ~time:(Xheal.totals s.eng).Cost.total_rounds ~victims:[ v ]
      ~touched ~healed:(Xheal.graph s.eng);
    leave tr j;
    if Monitor.checks m > checks then tr.checking <- j :: tr.checking
  | _ -> ()

let traced_insert s tr ~node ~neighbors =
  tr.step_seq <- tr.step_seq + 1;
  let i = enter tr k_insert in
  Xheal.insert s.eng ~node ~neighbors;
  leave tr i;
  match s.monitor with
  | Some m when s.driven ->
    let g = Xheal.graph s.eng in
    let j = enter tr k_mon_insert in
    Monitor.on_insert m ~node ~neighbors:(List.filter (fun u -> Graph.has_node g u && u <> node) neighbors);
    leave tr j
  | _ -> ()

type attack = {
  durations : int array;  (** Host ns of each deletion step. *)
  window_ns : int;
  aborted : int;  (** Detector deletions that left the victim in place. *)
  top_heap_words : int;
}

let attack w s ~seed ~instance ~tr =
  let atk = rng ~seed ~instance 3 in
  let alive = Array.make (w.n + w.deletions) 0 in
  for i = 0 to w.n - 1 do
    alive.(i) <- i
  done;
  let live = ref w.n in
  let next_id = ref w.n in
  let durations = Array.make w.deletions 0 in
  let aborted = ref 0 in
  let neighbors = Array.make insert_degree 0 in
  let start = now_ns () in
  for k = 0 to w.deletions - 1 do
    let i = Random.State.int atk !live in
    let v = alive.(i) in
    let t0 = now_ns () in
    (match tr with
    | None -> Xheal.delete ~trigger:s.trigger s.eng v
    | Some tr -> traced_delete s tr v);
    durations.(k) <- now_ns () - t0;
    if Graph.has_node (Xheal.graph s.eng) v then incr aborted
    else begin
      alive.(i) <- alive.(!live - 1);
      decr live
    end;
    if w.churn then begin
      let j = ref 0 in
      while !j < insert_degree do
        let u = alive.(Random.State.int atk !live) in
        let fresh = ref true in
        for l = 0 to !j - 1 do
          if neighbors.(l) = u then fresh := false
        done;
        if !fresh then begin
          neighbors.(!j) <- u;
          incr j
        end
      done;
      let node = !next_id in
      incr next_id;
      let neighbors = Array.to_list neighbors in
      (match tr with
      | None -> Xheal.insert s.eng ~node ~neighbors
      | Some tr -> traced_insert s tr ~node ~neighbors);
      alive.(!live) <- node;
      incr live
    end
  done;
  let window_ns = now_ns () - start in
  { durations; window_ns; aborted = !aborted; top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words }

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)

(* Nearest-rank [pct]-th percentile of an unsorted sample. *)
let percentile pct a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then 0 else a.(max 0 (((pct * n) + 99) / 100 - 1))

let graph_digest g =
  let b = Buffer.create (16 * Graph.num_edges g) in
  List.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b '\n')
    (Graph.edges g);
  Digest.to_hex (Digest.string (Buffer.contents b))

let sim_json w s a =
  let tot = Xheal.totals s.eng in
  let g = Xheal.graph s.eng in
  let check = match Xheal.check s.eng with Ok () -> "ok" | Error e -> e in
  let mon f = match s.monitor with Some m -> f m | None -> 0 in
  Jsonw.Obj
    [
      ("attempted", Jsonw.Int w.deletions);
      ("aborted", Jsonw.Int a.aborted);
      ("deletions", Jsonw.Int tot.Cost.deletions);
      ("insertions", Jsonw.Int tot.Cost.insertions);
      ("messages", Jsonw.Int tot.Cost.total_messages);
      ("rounds", Jsonw.Int tot.Cost.total_rounds);
      ("combines", Jsonw.Int tot.Cost.combines);
      ("edges_added", Jsonw.Int tot.Cost.total_edges_added);
      ("edges_removed", Jsonw.Int tot.Cost.total_edges_removed);
      ("unconverged", Jsonw.Int tot.Cost.unconverged);
      ("nodes", Jsonw.Int (Graph.num_nodes g));
      ("edges", Jsonw.Int (Graph.num_edges g));
      ("graph_digest", Jsonw.String (graph_digest g));
      ( "monitor_digest",
        Jsonw.String
          (match s.monitor with
          | Some m -> Digest.to_hex (Digest.string (Monitor.to_jsonl m))
          | None -> "") );
      ("monitor_checks", Jsonw.Int (mon Monitor.checks));
      ("monitor_violations", Jsonw.Int (mon Monitor.num_violations));
      ("check", Jsonw.String check);
    ]

(* Raw host measurements in ns and bytes; run.py derives the metrics. *)
let host_json s a =
  Jsonw.Obj
    [
      ("setup_ns", Jsonw.Int (s.generate_ns + s.create_ns + s.monitor_ns));
      ("window_ns", Jsonw.Int a.window_ns);
      ("deletion_samples", Jsonw.Int (Array.length a.durations));
      ("deletion_p50_ns", Jsonw.Int (percentile 50 a.durations));
      ("deletion_p99_ns", Jsonw.Int (percentile 99 a.durations));
      ("top_heap_bytes", Jsonw.Int (heap_bytes a.top_heap_words));
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer split of a traced run.                                    *)

let layers_json s tr =
  let n = tr.len in
  (* Self time and self allocation: a span minus what its children
     cover (calls are sequential, so children never overlap). *)
  let self_ns = Array.init n (fun i -> tr.t1.(i) - tr.t0.(i)) in
  let self_w = Array.init n (fun i -> tr.w1.(i) - tr.w0.(i)) in
  for i = 0 to n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then begin
      self_ns.(p) <- self_ns.(p) - (tr.t1.(i) - tr.t0.(i));
      self_w.(p) <- self_w.(p) - (tr.w1.(i) - tr.w0.(i))
    end
  done;
  let of_kind k = List.filter (fun i -> tr.kind.(i) = k) (List.init n Fun.id) in
  let sum f l = List.fold_left (fun acc i -> acc + f i) 0 l in
  let dur i = tr.t1.(i) - tr.t0.(i) in
  let self i = self_ns.(i) in
  let words i = self_w.(i) in
  let p50 f l = percentile 50 (Array.of_list (List.map f l)) in
  let per l x = if l = [] then 0. else float_of_int x /. float_of_int (List.length l) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let secs ns = float_of_int ns /. 1e9 in
  let deletes = of_kind k_delete and inserts = of_kind k_insert in
  let mon_deletes = of_kind k_mon_delete and mon_inserts = of_kind k_mon_insert in
  (* A deletion as the workload configures it: the engine call plus the
     monitor's capture and check that the seam would run inside it. *)
  let mon_deletion = of_kind k_capture @ mon_deletes in
  let deletion_ns = sum dur deletes + sum dur mon_deletion in
  let share ns = ratio ns deletion_ns in
  let tot = Xheal.totals s.eng in
  let metric name unit v = (name, unit, v) in
  let count name l = metric name "count" (float_of_int (List.length l)) in
  let setup =
    [
      metric "setup.generate_s" "s" (secs s.generate_ns);
      metric "setup.engine_create_s" "s" (secs s.create_ns);
      metric "setup.monitor_create_s" "s" (secs s.monitor_ns);
      metric "setup.heap_mb" "MiB" (float_of_int (heap_bytes s.setup_heap_words) /. 1048576.);
    ]
  in
  let engine =
    [
      count "engine.delete.calls" deletes;
      metric "engine.delete.self_s" "s" (secs (sum self deletes));
      metric "engine.delete.self_us_p50" "us" (float_of_int (p50 self deletes) /. 1e3);
      metric "engine.delete.minor_words" "words/call" (per deletes (sum words deletes));
      metric "engine.delete.share" "ratio" (share (sum self deletes));
      count "engine.insert.calls" inserts;
      metric "engine.insert.us_p50" "us" (float_of_int (p50 dur inserts) /. 1e3);
      metric "engine.insert.minor_words" "words/call" (per inserts (sum words inserts));
      count "engine.combine.calls" tr.combined;
      metric "engine.combine.self_s" "s" (secs (sum self tr.combined));
      metric "engine.combine.self_ms_p50" "ms" (float_of_int (p50 self tr.combined) /. 1e6);
      metric "engine.edges_churned_per_deletion" "edges"
        (per deletes (tot.Cost.total_edges_added + tot.Cost.total_edges_removed));
      metric "engine.clouds_touched_per_deletion" "clouds" (per deletes tr.clouds_touched);
    ]
  in
  let pricing =
    List.concat_map
      (fun (phase, k) ->
        let spans = of_kind k in
        let m = tr.measured.(k) in
        let p field = "pricing." ^ phase ^ "." ^ field in
        [
          count (p "calls") spans;
          metric (p "self_s") "s" (secs (sum self spans));
          metric (p "us_p50") "us" (float_of_int (p50 dur spans) /. 1e3);
          metric (p "minor_words") "words/call" (per spans (sum words spans));
          metric (p "share") "ratio" (share (sum self spans));
          metric (p "messages") "messages" (float_of_int m.Cost.m_messages);
          metric (p "rounds") "rounds" (float_of_int m.Cost.m_rounds);
          metric (p "dropped") "messages" (float_of_int m.Cost.m_dropped);
          metric (p "duplicated") "messages" (float_of_int m.Cost.m_duplicated);
          metric (p "delayed") "messages" (float_of_int m.Cost.m_delayed);
          metric (p "converged_ratio") "ratio" (ratio tr.converged.(k) (List.length spans));
        ])
      phase_kinds
  in
  let detects = List.length (of_kind k_detect) in
  let detect =
    [
      metric "pricing.detect.confirmed_ratio" "ratio" (ratio tr.confirmed detects);
      metric "pricing.detect.suspicions" "count" (float_of_int tr.suspicions);
      metric "pricing.detect.refutations" "count" (float_of_int tr.refutations);
      metric "pricing.detect.latency_rounds_mean" "rounds" (ratio tr.latency_sum tr.confirmed);
    ]
  in
  let mon f = match s.monitor with Some m -> f m | None -> 0 in
  let checks = mon Monitor.checks in
  let monitor =
    [
      count "monitor.calls" (mon_deletes @ mon_inserts);
      metric "monitor.checks" "count" (float_of_int checks);
      metric "monitor.self_s" "s" (secs (sum self (mon_deletion @ mon_inserts)));
      metric "monitor.check_ms_p50" "ms" (float_of_int (p50 dur tr.checking) /. 1e6);
      metric "monitor.minor_words_per_check" "words" (ratio (sum words tr.checking) checks);
      metric "monitor.share" "ratio" (share (sum self mon_deletion));
      metric "monitor.events" "count" (float_of_int (mon Monitor.num_events));
      metric "monitor.violations" "count" (float_of_int (mon Monitor.num_violations));
    ]
  in
  Jsonw.List
    (List.map
       (fun (name, unit, v) ->
         Jsonw.Obj [ ("name", Jsonw.String name); ("unit", Jsonw.String unit); ("value", Jsonw.Float v) ])
       (setup @ engine @ pricing @ detect @ monitor))

let write_spans path tr =
  let oc = open_out path in
  let origin = if tr.len > 0 then tr.t0.(0) else 0 in
  for i = 0 to tr.len - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":\"%s\",\"seq\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%d}\n"
      i kind_names.(tr.kind.(i)) tr.seq.(i) tr.parent.(i) (tr.t0.(i) - origin) (tr.t1.(i) - origin)
      (tr.w1.(i) - tr.w0.(i))
  done;
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and instance = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--instance", Arg.Set_int instance, "K which of the seed's independent instances to run");
      ("--trace", Arg.Set_string spans, "FILE record layer spans into FILE and print the per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xbench.exe --workload NAME --seed N --instance K [--trace FILE]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("xbench: unknown workload " ^ !workload);
      exit 2
  in
  (* Start from an empty minor heap, so the GC's pacing (and so
     top_heap_words) does not depend on how long argv and the
     executable's path happened to be. *)
  Gc.full_major ();
  let tr = if !spans <> "" then Some (trace_create ()) else None in
  let s = setup w ~seed:!seed ~instance:!instance ~tr in
  let a = attack w s ~seed:!seed ~instance:!instance ~tr in
  let fields =
    [
      ("workload", Jsonw.String w.name);
      ("seed", Jsonw.Int !seed);
      ("instance", Jsonw.Int !instance);
      ("traced", Jsonw.Bool (Option.is_some tr));
      ("sim", sim_json w s a);
      ("host", host_json s a);
    ]
  in
  let fields =
    match tr with
    | None -> fields
    | Some tr ->
      write_spans !spans tr;
      fields @ [ ("layers", layers_json s tr) ]
  in
  print_endline (Jsonw.to_string (Jsonw.Obj fields))
