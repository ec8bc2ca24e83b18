(* Byzantine fault injection: the in-transit tampering layer
   (lib/distributed/byzantine.ml), the per-protocol defenses, the
   backoff policy, and the determinism guarantees the tampering must
   preserve — crash-only plans are byte-identical under the
   Byzantine-aware path, and Byzantine runs replay bit-for-bit. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Msg = Xheal_distributed.Msg
module Fault_plan = Xheal_fault.Fault_plan
module Byzantine = Xheal_distributed.Byzantine
module Defense = Xheal_distributed.Defense
module Backoff = Xheal_distributed.Backoff
module Netsim = Xheal_distributed.Netsim
module Schedule = Xheal_fault.Schedule
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Cloud_build = Xheal_distributed.Cloud_build

let rng seed = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* Message vocabulary: every constructor must agree across kind,      *)
(* size_words and pp. The match below has no wildcard, so adding a    *)
(* constructor without extending this test fails to compile.          *)

let representatives : Msg.t list =
  [
    Challenge { rank = 7; candidate = 3 };
    Victory { leader = 2; members = [ 1; 2; 3 ] };
    Explore { root = 0; dist = 4 };
    Accept;
    Reject;
    Subtree [ 4; 5 ];
    Edges [ (1, 2); (3, 4) ];
    Hello;
    Ack;
    Confirm { leader = 2; reply = false };
    Confirm { leader = 2; reply = true };
    Vote { claim = 5; accept = false };
    Vote { claim = 5; accept = true };
    Beat;
    Suspect { target = 6 };
    Refute { target = 6 };
  ]

let _covers_every_constructor : Msg.t -> unit = function
  | Challenge _ | Victory _ | Explore _ | Accept | Reject | Subtree _ | Edges _ | Hello
  | Ack | Confirm _ | Vote _ | Beat | Suspect _ | Refute _ ->
    ()

let test_msg_vocabulary () =
  let kind m = Msg.kinds.(Msg.tag m) in
  let kinds = List.sort_uniq String.compare (List.map kind representatives) in
  Alcotest.(check int) "fourteen distinct kinds" 14 (List.length kinds);
  List.iter
    (fun m ->
      let k = kind m in
      Alcotest.(check bool) (k ^ " has positive size") true (Msg.size_words m >= 1);
      let printed = Format.asprintf "%a" Support.pp_msg m in
      Alcotest.(check bool)
        (Printf.sprintf "pp %S starts with kind %S" printed k)
        true
        (String.starts_with ~prefix:k printed))
    representatives

(* ------------------------------------------------------------------ *)
(* Tamper layer units.                                                *)

let byz_plan byzantine = Fault_plan.make ~seed:99 ~byzantine ()

let test_tamper_honest_passthrough () =
  let plan = byz_plan [ (1, Fault_plan.Equivocate) ] in
  let msg = Msg.Challenge { rank = 5; candidate = 2 } in
  (* Non-Byzantine sender: untouched. *)
  Alcotest.(check bool) "honest sender untouched" true
    (Byzantine.tamper plan ~src:2 ~dst:1 ~k:0 msg = Some msg);
  (* Byzantine sender, untargeted kind: untouched. *)
  Alcotest.(check bool) "ack passes clean" true
    (Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 Msg.Ack = Some Msg.Ack);
  Alcotest.(check bool) "confirm passes clean" true
    (let c = Msg.Confirm { leader = 3; reply = true } in
     Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 c = Some c)

let test_tamper_silent () =
  let plan = byz_plan [ (1, Fault_plan.Silent_on_protocol) ] in
  Alcotest.(check bool) "protocol payload swallowed" true
    (Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 (Msg.Subtree [ 1 ]) = None);
  Alcotest.(check bool) "handshake still sent" true
    (Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 Msg.Hello = Some Msg.Hello)

let test_tamper_equivocate () =
  let plan = byz_plan [ (1, Fault_plan.Equivocate) ] in
  let msg = Msg.Challenge { rank = 5; candidate = 1 } in
  let get ~dst ~k =
    match Byzantine.tamper plan ~src:1 ~dst ~k msg with
    | Some (Msg.Challenge { rank; candidate }) -> (rank, candidate)
    | _ -> Alcotest.fail "expected a challenge back"
  in
  (* Pure: the same (src, dst, k) always rewrites identically. *)
  Alcotest.(check bool) "rewrite is pure" true (get ~dst:2 ~k:0 = get ~dst:2 ~k:0);
  (* Equivocation: different recipients / retries see different ranks,
     all inside the honest coin domain (only consistency catches them). *)
  let r2 = fst (get ~dst:2 ~k:0) and r3 = fst (get ~dst:3 ~k:0) in
  let r2' = fst (get ~dst:2 ~k:1) in
  Alcotest.(check bool) "recipients see different ranks" true (r2 <> r3);
  Alcotest.(check bool) "retries see different ranks" true (r2 <> r2');
  List.iter
    (fun r ->
      Alcotest.(check bool) "forged rank stays in coin domain" true
        (r >= 0 && r < 0x3FFFFFFF))
    [ r2; r3; r2' ];
  Alcotest.(check int) "candidate is preserved" 1 (snd (get ~dst:2 ~k:0))

let test_tamper_additive_only () =
  let plan = byz_plan [ (1, Fault_plan.Equivocate) ] in
  (match Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 (Msg.Victory { leader = 9; members = [ 7; 8; 9 ] }) with
  | Some (Msg.Victory { leader; members }) ->
    Alcotest.(check bool) "original members kept" true
      (List.for_all (fun m -> List.mem m members) [ 7; 8; 9 ]);
    Alcotest.(check bool) "a phantom was appended" true
      (List.exists Byzantine.is_phantom members);
    Alcotest.(check bool) "forged leader is a member or phantom" true
      (List.mem leader members || Byzantine.is_phantom leader)
  | _ -> Alcotest.fail "expected a victory back");
  match Byzantine.tamper plan ~src:1 ~dst:2 ~k:0 (Msg.Subtree [ 4; 5 ]) with
  | Some (Msg.Subtree addrs) ->
    Alcotest.(check bool) "subtree keeps real entries" true
      (List.mem 4 addrs && List.mem 5 addrs);
    Alcotest.(check int) "exactly one phantom appended" 1
      (List.length (List.filter Byzantine.is_phantom addrs))
  | _ -> Alcotest.fail "expected a subtree back"

let test_tamper_corrupt () =
  let plan = byz_plan [ (1, Fault_plan.Corrupt_payload) ] in
  let msg = Msg.Challenge { rank = 5; candidate = 1 } in
  let get ~dst ~k =
    match Byzantine.tamper plan ~src:1 ~dst ~k msg with
    | Some (Msg.Challenge { rank; _ }) -> rank
    | _ -> Alcotest.fail "expected a challenge back"
  in
  (* The same lie to everyone, out of the honest coin domain. *)
  Alcotest.(check int) "same lie to every recipient" (get ~dst:2 ~k:0) (get ~dst:3 ~k:5);
  Alcotest.(check bool) "rank out of coin domain" true (get ~dst:2 ~k:0 >= 0x40000000)

let test_duplicate_byzantine_rejected () =
  Alcotest.check_raises "duplicate node rejected"
    (Invalid_argument "Fault_plan.make: duplicate node in byzantine schedule")
    (fun () ->
      ignore
        (Fault_plan.make
           ~byzantine:[ (1, Fault_plan.Equivocate); (1, Fault_plan.Silent_on_protocol) ]
           ()))

(* ------------------------------------------------------------------ *)
(* Backoff policy.                                                    *)

let test_backoff () =
  let fx = Backoff.fixed 3 in
  List.iter
    (fun attempt ->
      Alcotest.(check int) "fixed cadence" 3 (Backoff.interval fx ~node:7 ~attempt))
    [ 0; 1; 5; 40 ];
  let ex = Backoff.exponential ~base:3 ~cap:12 () in
  for attempt = 0 to 64 do
    let i = Backoff.interval ex ~node:5 ~attempt in
    Alcotest.(check bool) "within [base, cap]" true (i >= 3 && i <= 12);
    Alcotest.(check int) "deterministic" i (Backoff.interval ex ~node:5 ~attempt)
  done;
  Alcotest.(check bool) "late attempts saturate at the cap" true
    (Backoff.interval ex ~node:5 ~attempt:50 = 12);
  Alcotest.(check int) "max_interval is the cap" 12 (Backoff.max_interval ex);
  Alcotest.(check int) "fixed max_interval" 3 (Backoff.max_interval fx);
  (* Jitter decorrelates nodes: not every node shares one interval at
     the same attempt. *)
  let spread =
    List.sort_uniq Int.compare
      (List.init 16 (fun node -> Backoff.interval ex ~node ~attempt:1))
  in
  Alcotest.(check bool) "jitter spreads nodes" true (List.length spread > 1)

(* ------------------------------------------------------------------ *)
(* Defense semantics, end to end.                                     *)

let parts_of m = List.init m Fun.id

let election_beliefs ~defense ~byzantine ~seed =
  let m = 12 in
  let plan = Fault_plan.make ~seed ~byzantine () in
  let beliefs = Hashtbl.create m in
  let stats, elected =
    Election.run_robust ~rng:(rng 31) ~plan ~defense ~beliefs ~max_rounds:400 (parts_of m)
  in
  let byz = List.map fst byzantine in
  let honest = List.filter (fun id -> not (List.mem id byz)) (parts_of m) in
  let hb = List.filter_map (Hashtbl.find_opt beliefs) honest in
  (stats, elected, honest, hb)

let test_election_undefended_corrupts () =
  (* Epoch-0 coordinator equivocates its Victory broadcast: with no
     defenses the honest members adopt the forged, per-recipient
     leaders — disagreement. This pins the attack itself, so the
     defense test below is known to defeat something real. *)
  let stats, _, honest, hb =
    election_beliefs ~defense:Defense.none ~byzantine:[ (0, Fault_plan.Equivocate) ]
      ~seed:0xbad
  in
  Alcotest.(check bool) "undefended run quiesces" true stats.Netsim.converged;
  Alcotest.(check bool) "tampering recorded" true (stats.Netsim.tampered > 0);
  let disagree = match hb with [] -> false | b :: r -> List.exists (fun x -> x <> b) r in
  let bad b = Byzantine.is_phantom b || not (List.mem b (parts_of 12)) in
  Alcotest.(check bool) "beliefs corrupted" true
    (disagree || List.exists bad hb || List.length hb < List.length honest)

let test_election_defended_agrees () =
  let stats, elected, honest, hb =
    election_beliefs ~defense:Defense.all ~byzantine:[ (0, Fault_plan.Equivocate) ]
      ~seed:0xbad
  in
  Alcotest.(check bool) "defended run quiesces" true stats.Netsim.converged;
  Alcotest.(check int) "every honest node adopted" (List.length honest) (List.length hb);
  (match hb with
  | b :: rest ->
    Alcotest.(check bool) "honest beliefs agree" true (List.for_all (fun x -> x = b) rest);
    Alcotest.(check bool) "agreed leader is an honest participant" true
      (List.mem b honest)
  | [] -> Alcotest.fail "no honest beliefs");
  match elected with
  | Some l -> Alcotest.(check bool) "returned leader is honest" true (List.mem l honest)
  | None -> Alcotest.fail "no leader returned"

let test_bfs_quorum_filters_phantoms () =
  let graph = Gen.random_h_graph ~rng:(rng 57) 12 2 in
  let expected = List.sort Int.compare (Graph.nodes graph) in
  let byzantine = [ (3, Fault_plan.Equivocate) ] in
  let plan = Fault_plan.make ~seed:0xcafe ~byzantine () in
  let s0, c0 = Bfs_echo.run_robust ~plan ~max_rounds:400 ~graph ~root:0 () in
  Alcotest.(check bool) "undefended echo quiesces" true s0.Netsim.converged;
  (match c0 with
  | Some collected ->
    Alcotest.(check bool) "phantoms reached the root" true
      (List.exists Byzantine.is_phantom collected)
  | None -> Alcotest.fail "undefended echo collected nothing");
  let defense = Defense.make ~subtree_quorum:true () in
  let s1, c1 = Bfs_echo.run_robust ~plan ~defense ~max_rounds:400 ~graph ~root:0 () in
  Alcotest.(check bool) "defended echo quiesces" true s1.Netsim.converged;
  Alcotest.(check (option (list int))) "quorum collects the exact component"
    (Some expected) c1

let test_cloud_build_edge_mutual () =
  (* A Byzantine leader appends phantom endpoints to its Edges payloads.
     Phantoms are unregistered, so probing them can never block
     quiescence (those sends are dropped, not activity) — the damage is
     wasted probe traffic for as long as the run is otherwise alive.
     Message loss keeps this run alive long enough for the difference
     to show: undefended members re-probe their phantoms on every retry
     tick, edge_mutual caps the probes at give_up per peer. *)
  let members = parts_of 8 in
  let byzantine = [ (0, Fault_plan.Equivocate) ] in
  let plan = Fault_plan.make ~seed:0xd00d ~drop:0.25 ~byzantine () in
  let s0, e0 =
    Cloud_build.run_robust ~rng:(rng 91) ~plan ~max_rounds:2_000 ~d:2 ~leader:0 ~members ()
  in
  Alcotest.(check bool) "undefended build still quiesces" true s0.Netsim.converged;
  Alcotest.(check bool) "tampering was recorded" true (s0.Netsim.tampered > 0);
  Alcotest.(check bool) "phantom probes were dropped" true (s0.Netsim.dropped > 0);
  let defense = Defense.make ~edge_mutual:true () in
  let s1, e1 =
    Cloud_build.run_robust ~rng:(rng 91) ~plan ~defense ~max_rounds:2_000 ~d:2 ~leader:0
      ~members ~give_up:4 ()
  in
  Alcotest.(check bool) "edge_mutual build quiesces" true s1.Netsim.converged;
  Alcotest.(check bool) "capped probing wastes fewer sends" true
    (s1.Netsim.dropped < s0.Netsim.dropped);
  (* The leader's planned edge list is tamper-independent. *)
  Alcotest.(check bool) "edge plans agree" true (e0 = e1)

(* ------------------------------------------------------------------ *)
(* Determinism: pinned equivocation scenario replays bit-identically. *)

type event = { at : int; src : int; dst : int; msg : Msg.t }

let pp_event ppf e = Format.fprintf ppf "t=%d %d->%d %a" e.at e.src e.dst Support.pp_msg e.msg
let event = Alcotest.testable pp_event (fun a b -> a = b)

let byz_election_run () =
  let plan =
    Fault_plan.make ~seed:41 ~drop:0.1
      ~byzantine:[ (0, Fault_plan.Equivocate); (2, Fault_plan.Corrupt_payload) ]
      ()
  in
  let net = Netsim.create () in
  let get =
    Election.install_robust ~rng:(rng 5) ~defense:Defense.all net (parts_of 14) in
  let transcript = ref [] in
  let trace ~now ~src ~dst msg = transcript := { at = now; src; dst; msg } :: !transcript in
  let stats =
    Netsim.run ~max_rounds:4_000 ~plan ~grace:8 ~schedule:(Schedule.async ~seed:904 ~fairness:4)
      ~trace net
  in
  (List.rev !transcript, stats, get ())

let test_byz_transcript_replay () =
  let t1, s1, r1 = byz_election_run () in
  let t2, s2, r2 = byz_election_run () in
  Alcotest.(check bool) "transcript non-trivial" true (List.length t1 > 10);
  Alcotest.(check (list event)) "transcripts identical" t1 t2;
  Alcotest.(check bool) "stats identical" true (s1 = s2);
  Alcotest.(check (option int)) "leader identical" r1 r2;
  Alcotest.(check bool) "tampering happened" true (s1.Netsim.tampered > 0)

(* Event engine == reference loop under a Byzantine plan (sync), so the
   tamper hook sits identically in both engines. *)
let byz_conformance =
  QCheck.Test.make ~name:"byzantine plan: event engine == reference loop" ~count:40
    QCheck.(int_range 0 9999)
    (fun seed ->
      let byzantine =
        [ (seed mod 8, Fault_plan.Equivocate);
          (8 + (seed mod 4), Fault_plan.Corrupt_payload) ]
      in
      let plan = Fault_plan.make ~seed ~drop:0.05 ~byzantine () in
      let mk () =
        let net = Netsim.create () in
        let get =
          Election.install_robust ~rng:(rng seed) ~defense:Defense.all net (parts_of 12)
        in
        (net, get)
      in
      let na, ga = mk () in
      let nb, gb = mk () in
      let a = Netsim.run ~max_rounds:2_000 ~plan ~grace:8 na in
      let b = Netsim.run_reference ~max_rounds:2_000 ~plan ~grace:8 nb in
      a = b && ga () = gb ())

(* Fail-stop degeneracy: a crash/drop-only plan must behave
   byte-identically whether or not the Byzantine path is armed — here,
   armed with a schedule entry for a node that never sends (tampering
   is keyed on real senders, and rewrites draw no RNG). *)
let failstop_degenerate =
  QCheck.Test.make ~name:"crash-only plan identical under byzantine-aware path" ~count:40
    QCheck.(int_range 0 9999)
    (fun seed ->
      let graph = Gen.random_h_graph ~rng:(rng seed) (10 + (seed mod 8)) 2 in
      let crash_only =
        Fault_plan.make ~seed ~drop:0.08 ~crashes:[ (3, 5 + (seed mod 7)) ] ()
      in
      let armed =
        Fault_plan.make ~seed ~drop:0.08 ~crashes:[ (3, 5 + (seed mod 7)) ]
          ~byzantine:[ (999_999, Fault_plan.Equivocate) ] ()
      in
      let run plan =
        let net = Netsim.create () in
        let get = Bfs_echo.install_robust net ~graph ~root:0 in
        let transcript = ref [] in
        let trace ~now ~src ~dst msg =
          transcript := (now, src, dst, msg) :: !transcript
        in
        let stats = Netsim.run ~max_rounds:2_000 ~plan ~grace:8 ~trace net in
        (!transcript, stats, get ())
      in
      let ta, sa, ra = run crash_only in
      let tb, sb, rb = run armed in
      ta = tb && ra = rb && sa = sb && sa.Netsim.tampered = 0)

(* ------------------------------------------------------------------ *)
(* The plan-threaded engine (PR 6): a crash-only plan driven through
   Xheal.delete's measured pricing must replay byte-identically run to
   run — reports, fault counters, totals and healed graph — and arming
   the Byzantine path with an entry for a node that never participates
   must change nothing (the engine-level extension of the fail-stop
   degeneracy above). *)

module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Pricing = Xheal_distributed.Pricing

let engine_sig plan =
  let g0 = Gen.random_regular ~rng:(rng 61) 24 4 in
  let backend = Pricing.backend ~defense:Defense.adaptive ~seed:7 ~d:2 () in
  let eng =
    Xheal.create ~plan ~schedule:(Schedule.async ~seed:62 ~fairness:3) ~backend
      ~rng:(rng 63) g0
  in
  let atk = rng 64 in
  let reports = ref [] in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v;
    reports := Xheal.last_report eng :: !reports
  done;
  let g = Xheal.graph eng in
  ( List.rev !reports,
    Xheal.totals eng,
    List.sort Int.compare (Graph.nodes g),
    List.sort Xheal_graph.Edge.compare (Graph.edges g) )

let crash_plan ~armed seed =
  let byzantine = if armed then [ (999_999, Fault_plan.Equivocate) ] else [] in
  Fault_plan.make ~seed ~drop:0.06 ~crashes:[ (5, 4); (11, 9) ] ~byzantine ()

let test_engine_crash_only_replay () =
  let a = engine_sig (crash_plan ~armed:false 417) in
  let b = engine_sig (crash_plan ~armed:false 417) in
  Alcotest.(check bool) "two runs byte-identical" true (a = b);
  let armed = engine_sig (crash_plan ~armed:true 417) in
  Alcotest.(check bool) "inert byzantine entry changes nothing" true (a = armed);
  let reports, totals, _, _ = a in
  Alcotest.(check bool) "measured pricing actually engaged" true
    (totals.Cost.total_messages > 0
    && List.exists
         (function
           | Some r -> r.Cost.measured.Cost.m_dropped > 0 || r.Cost.measured.Cost.m_delayed > 0
           | None -> false)
         reports)

let suite =
  [
    ( "byzantine",
      [
        Alcotest.test_case "msg vocabulary is exhaustive and agrees" `Quick
          test_msg_vocabulary;
        Alcotest.test_case "tamper: honest and untargeted pass through" `Quick
          test_tamper_honest_passthrough;
        Alcotest.test_case "tamper: silent swallows protocol payloads" `Quick
          test_tamper_silent;
        Alcotest.test_case "tamper: equivocation is pure and per-recipient" `Quick
          test_tamper_equivocate;
        Alcotest.test_case "tamper: rewrites are additive-only" `Quick
          test_tamper_additive_only;
        Alcotest.test_case "tamper: corruption is uniform and out-of-domain" `Quick
          test_tamper_corrupt;
        Alcotest.test_case "duplicate byzantine node rejected" `Quick
          test_duplicate_byzantine_rejected;
        Alcotest.test_case "backoff: fixed and capped-exponential" `Quick test_backoff;
        Alcotest.test_case "election: undefended equivocation corrupts" `Quick
          test_election_undefended_corrupts;
        Alcotest.test_case "election: full defenses restore agreement" `Quick
          test_election_defended_agrees;
        Alcotest.test_case "bfs: subtree quorum filters phantoms" `Quick
          test_bfs_quorum_filters_phantoms;
        Alcotest.test_case "cloud build: edge_mutual caps phantom probing" `Quick
          test_cloud_build_edge_mutual;
        Alcotest.test_case "pinned equivocation scenario replays bit-identically" `Quick
          test_byz_transcript_replay;
        QCheck_alcotest.to_alcotest byz_conformance;
        QCheck_alcotest.to_alcotest failstop_degenerate;
        Alcotest.test_case "engine: crash-only plan replays byte-identically" `Quick
          test_engine_crash_only_replay;
      ] );
  ]
