(* The observability layer (lib/obs): deterministic JSON writer (read
   back with the suite's own parser, [Support.Json]), metrics registry
   semantics (histogram bucketing in particular), tracer span
   discipline (nesting, orphan ends), Chrome-trace export shape,
   registry-sourced Netsim per-type stats, and the headline
   invariant — same seed ⇒ byte-identical trace and metrics exports,
   pinned on a faulty asynchronous composite repair. *)

module Jsonw = Xheal_obs.Jsonw
module Json = Support.Json
module Metrics = Xheal_obs.Metrics
module Tracer = Xheal_obs.Tracer
module Scope = Xheal_obs.Scope
module Chrome_trace = Xheal_obs.Chrome_trace
module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Netsim = Xheal_distributed.Netsim
module Election = Xheal_distributed.Election
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Cost = Xheal_core.Cost
module Msg = Xheal_distributed.Msg
module Failure_detector = Xheal_distributed.Failure_detector
module Detect = Xheal_fault.Detect

(* ---------- Jsonw ---------- *)

let test_jsonw_roundtrip () =
  let v =
    Jsonw.Obj
      [
        ("s", Jsonw.String "a\"b\\c\n\t");
        ("i", Jsonw.Int (-42));
        ("f", Jsonw.Float 1.5);
        ("b", Jsonw.Bool true);
        ("n", Jsonw.Null);
        ("l", Jsonw.List [ Jsonw.Int 1; Jsonw.Obj []; Jsonw.List [] ]);
      ]
  in
  (match Json.of_string (Jsonw.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (v = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  (match Json.of_string (Jsonw.to_string_pretty v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Json.of_string "{} x"));
  Alcotest.(check bool) "bad token rejected" true
    (Result.is_error (Json.of_string "{\"a\":nope}"))

(* JSON has no non-finite literal: NaN and the infinities must print as
   null (and therefore reparse as Null), never as "nan"/"inf" tokens
   that would corrupt the file. Integral floats keep one fractional
   digit so they stay floats on reparse. *)
let test_jsonw_nonfinite () =
  let s =
    Jsonw.to_string
      (Jsonw.List
         [ Jsonw.Float Float.nan; Jsonw.Float Float.infinity;
           Jsonw.Float Float.neg_infinity; Jsonw.Float 2.0 ])
  in
  Alcotest.(check string) "non-finite floats print as null" "[null,null,null,2.0]" s;
  match Json.of_string s with
  | Ok (Jsonw.List [ Jsonw.Null; Jsonw.Null; Jsonw.Null; Jsonw.Float _ ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected reparse shape"
  | Error e -> Alcotest.failf "reparse failed: %s" e

(* Every byte below 0x20 must leave the writer escaped (named escapes
   for \n \r \t, \u00XX otherwise) and survive a parse roundtrip. *)
let test_jsonw_control_chars () =
  let s = String.init 0x20 Char.chr ^ "end\"quote" in
  let printed = Jsonw.to_string (Jsonw.String s) in
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte 0x%02x in output" (Char.code c))
    printed;
  (match Json.of_string printed with
  | Ok (Jsonw.String s') -> Alcotest.(check string) "control-char roundtrip" s s'
  | Ok _ -> Alcotest.fail "control-char string reparsed as non-string"
  | Error e -> Alcotest.failf "control-char reparse failed: %s" e);
  (* The reader accepts ASCII \u escapes and rejects multi-byte ones. *)
  (match Json.of_string "\"\\u0041\"" with
  | Ok (Jsonw.String "A") -> ()
  | _ -> Alcotest.fail "\\u0041 did not parse as A");
  Alcotest.(check bool) "non-ASCII \\u escape rejected" true
    (Result.is_error (Json.of_string "\"\\u2603\""))

(* ---------- Metrics: histogram bucketing ---------- *)

let test_histogram_bucketing () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" ~buckets:[| 10; 20 |] in
  List.iter (Metrics.observe h) [ 5; 10; 11; 20; 21; 100 ];
  Alcotest.(check int) "count" 6 (Metrics.summary h).Metrics.s_count;
  Alcotest.(check int) "sum" 167 (Metrics.summary h).Metrics.s_sum;
  Alcotest.(check (list (pair (option int) int)))
    "inclusive upper bounds + overflow"
    [ (Some 10, 2); (Some 20, 2); (None, 2) ]
    (Metrics.histogram_buckets h);
  (* Re-acquiring with identical bounds is the same histogram. *)
  Metrics.observe (Metrics.histogram reg "h" ~buckets:[| 10; 20 |]) 1;
  Alcotest.(check int) "shared on re-acquire" 7 (Metrics.summary h).Metrics.s_count;
  Alcotest.(check bool) "bounds mismatch rejected" true
    (try
       ignore (Metrics.histogram reg "h" ~buckets:[| 10; 30 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (try
       ignore (Metrics.histogram reg "h2" ~buckets:[| 5; 5 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Metrics.counter reg "h");
       false
     with Invalid_argument _ -> true)

(* Deterministic histogram summaries: count/sum/min/max/mean, all-zero
   on an empty histogram (no NaN mean), and [summaries] lists every
   histogram in the registry's sorted order. *)
let test_metrics_summary () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" ~buckets:[| 10 |] in
  List.iter (Metrics.observe h) [ 4; 10; 1 ];
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 3 s.Metrics.s_count;
  Alcotest.(check int) "sum" 15 s.Metrics.s_sum;
  Alcotest.(check int) "min" 1 s.Metrics.s_min;
  Alcotest.(check int) "max" 10 s.Metrics.s_max;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Metrics.s_mean;
  let e = Metrics.summary (Metrics.histogram reg "empty" ~buckets:[| 1 |]) in
  Alcotest.(check int) "empty count" 0 e.Metrics.s_count;
  Alcotest.(check (float 0.)) "empty mean is 0, not NaN" 0.0 e.Metrics.s_mean;
  Alcotest.(check int) "empty min" 0 e.Metrics.s_min;
  ignore (Metrics.counter reg "not-a-histogram");
  Alcotest.(check (list string)) "summaries: histograms only, sorted"
    [ "empty"; "lat" ]
    (List.map fst (Metrics.summaries reg));
  match Metrics.summary_json s with
  | Jsonw.Obj fields ->
    Alcotest.(check (list string)) "summary_json field order"
      [ "count"; "sum"; "min"; "max"; "mean" ] (List.map fst fields)
  | _ -> Alcotest.fail "summary_json is not an object"

(* ---------- Tracer: nesting and orphan detection ---------- *)

let test_span_nesting () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:0 ~name:"outer" ~now:0;
  Tracer.begin_span tr ~track:0 ~name:"inner" ~now:2;
  Alcotest.(check (result unit string)) "check flags both open spans"
    (Error "Tracer: 2 span(s) still open at export") (Tracer.check tr);
  Tracer.end_span tr ~track:0 ~now:5;
  Tracer.end_span tr ~track:0 ~now:9;
  Alcotest.(check bool) "balanced" true (Result.is_ok (Tracer.check tr));
  (* Spans appear at completion: inner closes first. *)
  (match Tracer.events tr with
  | [ { Tracer.name = "inner"; ts = 2; data = Tracer.Span { dur = 3 }; _ };
      { Tracer.name = "outer"; ts = 0; data = Tracer.Span { dur = 9 }; _ } ] ->
    ()
  | evs -> Alcotest.failf "unexpected events (%d)" (List.length evs));
  (* Same-track spans nest; an end on an empty track is an orphan. *)
  Alcotest.(check bool) "orphan end rejected" true
    (try
       Tracer.end_span tr ~track:7 ~now:1;
       false
     with Invalid_argument _ -> true);
  Tracer.begin_span tr ~track:1 ~name:"late" ~now:10;
  Alcotest.(check bool) "end before begin rejected" true
    (try
       Tracer.end_span tr ~track:1 ~now:4;
       false
     with Invalid_argument _ -> true)

let test_set_base () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:0 ~name:"p1" ~now:0;
  Tracer.end_span tr ~track:0 ~now:4;
  Tracer.set_base tr 4;
  Tracer.begin_span tr ~track:0 ~name:"p2" ~now:0;
  Tracer.end_span tr ~track:0 ~now:3;
  match Tracer.events tr with
  | [ { Tracer.ts = 0; _ }; { Tracer.ts = 4; data = Tracer.Span { dur = 3 }; _ } ] -> ()
  | _ -> Alcotest.fail "base offset not applied"

(* ---------- Tracer.aggregate: flamegraph-style totals ---------- *)

let agg_of name aggs =
  match List.find_opt (fun a -> a.Tracer.agg_name = name) aggs with
  | Some a -> (a.Tracer.count, a.Tracer.total, a.Tracer.self)
  | None -> Alcotest.failf "no aggregate row for %S" name

let test_aggregate_nesting () =
  let tr = Tracer.create () in
  (* outer [0,10] wraps inner [2,5] and inner [6,8]; a second outer
     [20,24] has no children. Self(outer) = 10-5 + 4 = 9. *)
  Tracer.begin_span tr ~track:0 ~name:"outer" ~now:0;
  Tracer.begin_span tr ~track:0 ~name:"inner" ~now:2;
  Tracer.end_span tr ~track:0 ~now:5;
  Tracer.begin_span tr ~track:0 ~name:"inner" ~now:6;
  Tracer.end_span tr ~track:0 ~now:8;
  Tracer.end_span tr ~track:0 ~now:10;
  Tracer.begin_span tr ~track:0 ~name:"outer" ~now:20;
  Tracer.end_span tr ~track:0 ~now:24;
  (* Instants and samples are ignored by the aggregation. *)
  Tracer.instant tr ~track:0 ~name:"noise" ~now:3;
  Tracer.sample tr ~track:0 ~name:"noise" ~now:4 ~value:9;
  let aggs = Tracer.aggregate tr in
  Alcotest.(check (list string)) "rows sorted by name, spans only" [ "inner"; "outer" ]
    (List.map (fun a -> a.Tracer.agg_name) aggs);
  Alcotest.(check (triple int int int)) "inner totals" (2, 5, 5) (agg_of "inner" aggs);
  Alcotest.(check (triple int int int)) "outer totals" (2, 14, 9) (agg_of "outer" aggs)

let test_aggregate_depth_and_tracks () =
  let tr = Tracer.create () in
  (* Track 0: a [0,10] > b [1,9] > c [2,4] — only DIRECT children count
     against self: self(a) = 10-8 = 2, self(b) = 8-2 = 6. *)
  Tracer.begin_span tr ~track:0 ~name:"a" ~now:0;
  Tracer.begin_span tr ~track:0 ~name:"b" ~now:1;
  Tracer.begin_span tr ~track:0 ~name:"c" ~now:2;
  Tracer.end_span tr ~track:0 ~now:4;
  Tracer.end_span tr ~track:0 ~now:9;
  Tracer.end_span tr ~track:0 ~now:10;
  (* Track 1: an overlapping-in-time "a" [3,7] must NOT nest under
     track 0's spans — tracks aggregate independently. *)
  Tracer.begin_span tr ~track:1 ~name:"a" ~now:3;
  Tracer.end_span tr ~track:1 ~now:7;
  let aggs = Tracer.aggregate tr in
  Alcotest.(check (triple int int int)) "a across tracks" (2, 14, 6) (agg_of "a" aggs);
  Alcotest.(check (triple int int int)) "b direct child only" (1, 8, 6) (agg_of "b" aggs);
  Alcotest.(check (triple int int int)) "c leaf" (1, 2, 2) (agg_of "c" aggs)

(* The summed duration of the spans no other span on their track
   encloses: on one track spans nest, so sorted by start (the longer
   first on a tie) a span is top-level when it starts at or after the
   end of the last top-level one. *)
let top_level_time tr =
  let spans =
    List.filter_map
      (fun (e : Tracer.event) ->
        match e.Tracer.data with
        | Tracer.Span { dur } -> Some (e.Tracer.track, e.Tracer.ts, dur)
        | Tracer.Instant | Tracer.Sample _ -> None)
      (Tracer.events tr)
  in
  let sorted =
    List.sort
      (fun (k1, t1, d1) (k2, t2, d2) ->
        match Int.compare k1 k2 with
        | 0 -> ( match Int.compare t1 t2 with 0 -> Int.compare d2 d1 | c -> c)
        | c -> c)
      spans
  in
  let total, _ =
    List.fold_left
      (fun (total, last) (k, ts, dur) ->
        match last with
        | Some (k', stop) when k = k' && ts < stop -> (total, last)
        | _ -> (total + dur, Some (k, ts + dur)))
      (0, None) sorted
  in
  total

let test_aggregate_phases_and_zero () =
  let tr = Tracer.create () in
  (* Two phases laid out with set_base, each wrapping the same protocol
     span name; recording order alone (completion order) would nest
     phase2 under phase1 without the interval reconstruction. *)
  Tracer.begin_span tr ~track:0 ~name:"phase1" ~now:0;
  Tracer.begin_span tr ~track:0 ~name:"proto" ~now:1;
  Tracer.end_span tr ~track:0 ~now:4;
  Tracer.end_span tr ~track:0 ~now:5;
  Tracer.set_base tr 5;
  Tracer.begin_span tr ~track:0 ~name:"phase2" ~now:0;
  Tracer.begin_span tr ~track:0 ~name:"proto" ~now:0;
  Tracer.end_span tr ~track:0 ~now:2;
  (* A zero-duration span still counts an occurrence. *)
  Tracer.begin_span tr ~track:0 ~name:"blip" ~now:3;
  Tracer.end_span tr ~track:0 ~now:3;
  Tracer.end_span tr ~track:0 ~now:3;
  let aggs = Tracer.aggregate tr in
  Alcotest.(check (triple int int int)) "phase1" (1, 5, 2) (agg_of "phase1" aggs);
  Alcotest.(check (triple int int int)) "phase2" (1, 3, 1) (agg_of "phase2" aggs);
  Alcotest.(check (triple int int int)) "proto summed across phases" (2, 5, 5)
    (agg_of "proto" aggs);
  Alcotest.(check (triple int int int)) "zero-duration span" (1, 0, 0)
    (agg_of "blip" aggs);
  (* Self times partition the traced time exactly: sum(self) =
     sum of top-level durations (5 + 3). *)
  let total_self = List.fold_left (fun acc a -> acc + a.Tracer.self) 0 aggs in
  Alcotest.(check int) "self times partition the timeline" 8 total_self;
  Alcotest.(check int) "top-level time" 8 (top_level_time tr);
  (* The same partition on an observed engine's trace: an H-graph
     healed through 60 seeded random deletions. *)
  let obs = Scope.create () in
  let rng = Random.State.make [| 1009 |] in
  let eng = Xheal.create ~obs ~rng (Gen.random_h_graph ~rng 400 2) in
  let atk = Random.State.make [| 1013 |] in
  for _ = 1 to 60 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
  done;
  let tr = obs.Scope.tracer in
  let aggs = Tracer.aggregate tr in
  Alcotest.(check bool) "engine spans aggregated" true (aggs <> []);
  Alcotest.(check int) "top-level spans cover the engine's rounds"
    (Xheal.totals eng).Cost.total_rounds (top_level_time tr);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 <= self <= total, count > 0" a.Tracer.agg_name)
        true
        (a.Tracer.count > 0 && 0 <= a.Tracer.self && a.Tracer.self <= a.Tracer.total))
    aggs;
  Alcotest.(check int) "engine self times partition the timeline" (top_level_time tr)
    (List.fold_left (fun acc a -> acc + a.Tracer.self) 0 aggs)

(* ---------- Chrome-trace export shape ---------- *)

let test_chrome_export () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:Tracer.control_track ~name:"repair" ~now:0;
  Tracer.instant tr ~track:0 ~name:"recv:hello" ~now:1;
  Tracer.sample tr ~track:Tracer.control_track ~name:"inflight" ~now:1 ~value:3;
  Tracer.end_span tr ~track:Tracer.control_track ~now:2;
  let json = Chrome_trace.to_json tr in
  let events =
    match Json.member "traceEvents" json with
    | Some (Jsonw.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phs =
    List.filter_map
      (fun e -> match Json.member "ph" e with Some (Jsonw.String p) -> Some p | _ -> None)
      events
  in
  Alcotest.(check (list string)) "event kinds in order" [ "i"; "C"; "X" ] phs;
  (* The control track must not export a negative tid. *)
  List.iter
    (fun e ->
      match Json.member "tid" e with
      | Some (Jsonw.Int t) -> Alcotest.(check bool) "tid >= 0" true (t >= 0)
      | _ -> Alcotest.fail "event without tid")
    events;
  match Json.of_string (Chrome_trace.to_string tr) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export is not valid JSON: %s" e

(* An empty tracer must still export valid Chrome JSON. *)
let test_chrome_export_empty () =
  let tr = Tracer.create () in
  match Json.of_string (Chrome_trace.to_string tr) with
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Jsonw.List []) -> ()
    | Some (Jsonw.List _) -> Alcotest.fail "empty tracer exported events"
    | _ -> Alcotest.fail "no traceEvents array")
  | Error e -> Alcotest.failf "empty export is not valid JSON: %s" e

(* A flush that fails must raise, not leave a truncated file behind a
   normal return: /dev/full accepts the open and fails every write. *)
let test_chrome_write_failure () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:0 ~name:"repair" ~now:0;
  Tracer.end_span tr ~track:0 ~now:2;
  match Chrome_trace.write_file "/dev/full" tr with
  | () -> Alcotest.fail "a write to a full device returned normally"
  | exception Sys_error _ -> ()

(* ---------- Netsim stats come from the registry ---------- *)

let test_per_type_consistency () =
  let obs = Scope.create () in
  let plan = Fault_plan.make ~seed:9 ~drop:0.15 ~duplicate:0.1 () in
  let stats, leader =
    Election.run_robust ~rng:(Random.State.make [| 21 |]) ~obs ~plan ~max_rounds:600
      (List.init 24 Fun.id)
  in
  Alcotest.(check bool) "elected someone" true (leader <> None);
  Alcotest.(check bool) "has per-type rows" true (stats.Netsim.per_type <> []);
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 stats.Netsim.per_type in
  Alcotest.(check int) "per-type drops sum to stats.dropped" stats.Netsim.dropped
    (sum (fun c -> c.Netsim.dropped));
  Alcotest.(check int) "per-type dups sum to stats.duplicated" stats.Netsim.duplicated
    (sum (fun c -> c.Netsim.duplicated));
  (* The same counters are visible in the scope's registry dump. *)
  let counters = Metrics.counters obs.Scope.metrics in
  List.iter
    (fun (kind, c) ->
      Alcotest.(check (option int))
        (Printf.sprintf "registry matches per_type for %s" kind)
        (Some c.Netsim.delivered)
        (List.assoc_opt ("netsim.delivered." ^ kind) counters))
    stats.Netsim.per_type

(* ---------- Golden pin of Netsim's observable outputs ---------- *)

(* Four runs share one scope: a lossy asynchronous detector run with a
   crash, a hardened cloud build under every probabilistic fault plus a
   crash, a Byzantine equivocation, and a run cut at [max_rounds] while
   a delayed [Hello] is still in flight (its kind keeps an all-zero
   [per_type] row). The MD5s of the metrics dump, of each run's
   [per_type] and of the Chrome trace come from the heap-based engine
   that preceded the calendar ring; any drift in counting, ordering or
   tracing moves one of them. Sharing the scope also pins that
   [per_type] stays each run's own delta. *)
let per_type_string (s : Netsim.stats) =
  String.concat ";"
    (List.map
       (fun (kind, (c : Netsim.type_counts)) ->
         Printf.sprintf "%s:%d/%d/%d/%d" kind c.delivered c.dropped c.duplicated c.tampered)
       s.Netsim.per_type)

let golden_runs () =
  let obs = Scope.create () in
  let group = [ 0; 1; 2; 3; 4 ] in
  let clique = List.map (fun u -> (u, List.filter (fun v -> v <> u) group)) group in
  let detect, _ =
    Failure_detector.run ~obs
      ~plan:(Fault_plan.make ~seed:41 ~drop:0.1 ())
      ~schedule:(Schedule.async ~seed:42 ~fairness:3)
      ~config:(Detect.make ~seed:5 ()) ~victim:0 ~crash_at:3 ~peers:clique ()
  in
  let build =
    Pricing.build ~rng:(Random.State.make [| 43 |]) ~obs
      ~plan:
        (Fault_plan.make ~seed:44 ~drop:0.1 ~duplicate:0.1 ~delay:0.2 ~max_delay:3
           ~crashes:[ (5, 6) ] ())
      ~max_rounds:300 ~d:2 ~leader:0 ~members:(List.init 8 Fun.id) ()
  in
  let byz, _ =
    Election.run_robust ~rng:(Random.State.make [| 45 |]) ~obs
      ~plan:(Fault_plan.make ~seed:46 ~byzantine:[ (2, Fault_plan.Equivocate) ] ())
      ~max_rounds:600 (List.init 8 Fun.id)
  in
  let net = Netsim.create ~obs () in
  Netsim.add_node net 0 (fun ~now ~inbox:_ -> if now = 0 then [ (1, Msg.Hello) ] else []);
  Netsim.add_node net 1 (fun ~now:_ ~inbox:_ -> []);
  let cut =
    Netsim.run ~max_rounds:2 ~plan:(Fault_plan.make ~seed:47 ~delay:1.0 ~max_delay:5 ()) net
  in
  Alcotest.(check bool) "crashed member stalls the build" false build.Cost.m_converged;
  Alcotest.(check bool) "equivocation tampered" true (byz.Netsim.tampered > 0);
  Alcotest.(check bool) "cut run stopped early" false cut.Netsim.converged;
  Alcotest.(check string) "undelivered hello keeps its row" "hello:0/0/0/0"
    (per_type_string cut);
  (obs, [ detect; byz; cut ])

let md5 s = Digest.to_hex (Digest.string s)

let test_netsim_golden () =
  let obs, runs = golden_runs () in
  Alcotest.(check string) "metrics dump" "4a79364920d0d3f689cd361df6badbed"
    (md5 (Scope.metrics_string obs));
  Alcotest.(check (list string)) "per_type of each run"
    [ "7df70b15c045e3128316b90617dfac93"; "58c6db6cff15faf4172a4a315b3103a6";
      "36c76f2924b22e982a5ec51de75df8ed" ]
    (List.map (fun s -> md5 (per_type_string s)) runs);
  Alcotest.(check string) "chrome trace" "1d8f309033aa7a1dd1626f6a6553817a"
    (md5 (Chrome_trace.to_string obs.Scope.tracer))

(* ---------- Byte-identical exports on replay ---------- *)

(* A faulty asynchronous attack: a seeded engine prices every repair
   through a backend whose protocols run under drops/dups/delays on an
   async schedule, all observed in one scope (the engine itself stays
   unobserved, so the scope keeps one clock). *)
let observed_repair seed =
  let obs = Scope.create () in
  let rng = Random.State.make [| seed |] in
  let plan = Fault_plan.make ~seed:(seed + 3) ~drop:0.08 ~duplicate:0.05 ~delay:0.1 () in
  let schedule = Schedule.async ~seed:(seed + 4) ~fairness:6 in
  let backend = Pricing.backend ~obs ~max_rounds:20_000 ~seed:(seed + 2) ~d:2 () in
  let eng = Xheal.create ~plan ~schedule ~backend ~rng (Gen.random_regular ~rng 24 4) in
  let atk = Random.State.make [| seed + 1 |] in
  for _ = 1 to 4 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  Alcotest.(check bool) "trace is well-formed" true
    (Result.is_ok (Tracer.check obs.Scope.tracer));
  (Chrome_trace.to_string obs.Scope.tracer, Scope.metrics_string obs)

let test_trace_determinism () =
  List.iter
    (fun seed ->
      let trace1, metrics1 = observed_repair seed in
      let trace2, metrics2 = observed_repair seed in
      Alcotest.(check bool)
        (Printf.sprintf "trace bytes identical (seed %d)" seed)
        true (String.equal trace1 trace2);
      Alcotest.(check bool)
        (Printf.sprintf "metrics bytes identical (seed %d)" seed)
        true (String.equal metrics1 metrics2);
      Alcotest.(check bool) "trace non-trivial" true (String.length trace1 > 1000))
    [ 3; 17 ]

(* The instrumented engine is deterministic too, and observation leaves
   the repair outcome untouched (obs never draws from the rng). *)
let observed_engine seed =
  let obs = Scope.create () in
  let rng = Random.State.make [| seed |] in
  let eng = Xheal.create ~obs ~rng (Gen.random_regular ~rng 32 4) in
  let atk = Random.State.make [| seed + 1 |] in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  Alcotest.(check bool) "engine trace well-formed" true
    (Result.is_ok (Tracer.check obs.Scope.tracer));
  ((Xheal.totals eng).Xheal_core.Cost.total_messages,
   (Chrome_trace.to_string obs.Scope.tracer, Scope.metrics_string obs))

let test_engine_determinism () =
  let msgs1, (trace1, metrics1) = observed_engine 11 in
  let msgs2, (trace2, metrics2) = observed_engine 11 in
  Alcotest.(check int) "same repairs" msgs1 msgs2;
  Alcotest.(check bool) "engine trace bytes identical" true (String.equal trace1 trace2);
  Alcotest.(check bool) "engine metrics bytes identical" true
    (String.equal metrics1 metrics2);
  (* Observation is passive: a bare engine on the same seed produces the
     same totals. *)
  let rng = Random.State.make [| 11 |] in
  let bare = Xheal.create ~rng (Gen.random_regular ~rng 32 4) in
  let atk = Random.State.make [| 12 |] in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal.graph bare) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete bare v
  done;
  Alcotest.(check int) "observation does not perturb the engine" msgs1
    (Xheal.totals bare).Xheal_core.Cost.total_messages

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "jsonw roundtrip" `Quick test_jsonw_roundtrip;
        Alcotest.test_case "jsonw non-finite floats" `Quick test_jsonw_nonfinite;
        Alcotest.test_case "jsonw control-char escaping" `Quick test_jsonw_control_chars;
        Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
        Alcotest.test_case "histogram summaries" `Quick test_metrics_summary;
        Alcotest.test_case "span nesting and orphans" `Quick test_span_nesting;
        Alcotest.test_case "set_base offsets phases" `Quick test_set_base;
        Alcotest.test_case "aggregate: nesting and self times" `Quick
          test_aggregate_nesting;
        Alcotest.test_case "aggregate: depth, tracks are independent" `Quick
          test_aggregate_depth_and_tracks;
        Alcotest.test_case "aggregate: set_base phases and zero-duration" `Quick
          test_aggregate_phases_and_zero;
        Alcotest.test_case "chrome trace export shape" `Quick test_chrome_export;
        Alcotest.test_case "chrome trace export: empty and idle tracks" `Quick
          test_chrome_export_empty;
        Alcotest.test_case "chrome trace write raises on a failed flush" `Quick
          test_chrome_write_failure;
        Alcotest.test_case "per-type stats source from registry" `Quick
          test_per_type_consistency;
        Alcotest.test_case "netsim outputs match the golden digests" `Quick
          test_netsim_golden;
        Alcotest.test_case "faulty async repair exports byte-identically" `Quick
          test_trace_determinism;
        Alcotest.test_case "observed engine is deterministic and passive" `Quick
          test_engine_determinism;
      ] );
  ]
