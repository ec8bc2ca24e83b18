module Table = Xheal_metrics.Table
module Gen = Xheal_graph.Generators
module Election = Xheal_distributed.Election
module Bfs = Xheal_distributed.Bfs_echo
module Netsim = Xheal_distributed.Netsim
module Fault_plan = Xheal_fault.Fault_plan
module Defense = Xheal_distributed.Defense
module Byzantine = Xheal_distributed.Byzantine

(* Byzantine tolerance sweep: election and BFS-echo re-run with a
   growing fraction of nodes scheduled as Byzantine senders
   (equivocation, payload corruption, protocol silence — in-transit
   rewrites applied by the simulator), under two placements:

   - bridge: the lowest ids — the coordinator rotation of the election
     and the first-in-line witness/parent positions, i.e. exactly the
     nodes the protocols concentrate trust in;
   - random: a seeded uniform sample.

   Each defense of {!Defense} is ablated separately against the sweep.
   A trial counts as CORRUPTED only when the protocol *quiesced on a
   wrong answer* (silent corruption): an elected or believed leader
   that is Byzantine, phantom, or a non-participant; honest beliefs
   that disagree or are missing; a collected component with phantom or
   missing members. Running out of rounds is loud failure, not
   corruption — the repair pipeline can see it and re-run.

   The tolerance threshold of a (placement, defense) cell is the
   largest swept fraction such that every fraction up to it produced
   zero corrupted trials. The claim under test: defenses-off tolerates
   nothing once the bridge positions lie, and the full defense stack
   pushes the threshold strictly higher — trust concentration is the
   attack surface, cross-validation is the repair. *)

(* Per-retry equivocation variance keeps the echo aggregation churning
   (every retransmission carries a fresh phantom, so parents keep
   re-propagating), which stretches time-to-quiescence with the cloud
   size — the full-mode cap must leave room for the m = 24 churn to
   settle so undefended runs get to *quiesce on a wrong answer* instead
   of hiding behind a loud round-cap exit. *)
let max_rounds_for ~quick = if quick then 400 else 2_000

let defenses =
  [
    ("none", Defense.none);
    ("echo", Defense.make ~victory_echo:true ());
    ("rank", Defense.make ~rank_commit:true ());
    ("quorum", Defense.make ~subtree_quorum:true ());
    ("all", Defense.all);
  ]

(* Election trials cycle all three behaviours. The BFS-echo sweep uses
   only the two corruption-capable ones: a node silent on the protocol
   track never gets its Subtree confirmed, so it retries forever and
   every swallowed send keeps the net active — unconditionally loud
   under every defense, by design (fail-stop visibility), hence it can
   never move the *silent-corruption* threshold this experiment
   measures. Its loudness is pinned in test_byzantine.ml instead. *)
let election_behaviour i =
  match i mod 3 with
  | 0 -> Fault_plan.Equivocate
  | 1 -> Fault_plan.Corrupt_payload
  | _ -> Fault_plan.Silent_on_protocol

let bfs_behaviour i =
  match i mod 2 with 0 -> Fault_plan.Equivocate | _ -> Fault_plan.Corrupt_payload

type placement = Bridge | Spread

let placement_name = function Bridge -> "bridge" | Spread -> "random"

(* The Byzantine ids for one trial. [ids] must exclude any node whose
   corruption would make the metric itself meaningless (the BFS root,
   which is the observer). *)
let byz_ids ~placement ~ids ~k ~t =
  match placement with
  | Bridge -> List.filteri (fun i _ -> i < k) ids
  | Spread ->
    let rng = Exp.seeded (1450 + (7 * t)) in
    List.sort Int.compare (List.filteri (fun i _ -> i < k) (Gen.shuffle_list ~rng ids))

let schedule ~behaviour ~placement ~ids ~k ~t =
  List.mapi (fun i id -> (id, behaviour i)) (byz_ids ~placement ~ids ~k ~t)

type outcome = Clean | Corrupt | Loud

let election_trial ~m ~max_rounds ~placement ~defense ~k ~t =
  let parts = List.init m Fun.id in
  let byzantine = schedule ~behaviour:election_behaviour ~placement ~ids:parts ~k ~t in
  let plan =
    if byzantine = [] then Fault_plan.none
    else Fault_plan.make ~seed:(0x0e14 + (t * 257) + (k * 17)) ~byzantine ()
  in
  let beliefs = Hashtbl.create m in
  let stats, elected =
    Election.run_robust ~rng:(Exp.seeded (1401 + t)) ~plan ~defense ~beliefs ~max_rounds
      parts
  in
  if not stats.Netsim.converged then Loud
  else begin
    let byz = List.map fst byzantine in
    let honest = List.filter (fun id -> not (List.mem id byz)) parts in
    let hb = List.filter_map (fun id -> Hashtbl.find_opt beliefs id) honest in
    (* A leader no honest protocol could have produced: an id forged in
       transit, an outsider, or a node scheduled to lie. *)
    let bad b = Byzantine.is_phantom b || (not (List.mem b parts)) || List.mem b byz in
    let corrupt =
      List.length hb < List.length honest
      || List.exists bad hb
      || (match hb with [] -> false | b0 :: rest -> List.exists (fun b -> b <> b0) rest)
      || (match elected with Some l -> bad l | None -> true)
    in
    if corrupt then Corrupt else Clean
  end

let bfs_trial ~graph ~expected ~max_rounds ~placement ~defense ~k ~t =
  let non_root =
    List.filter (fun v -> v <> 0)
      (List.sort Int.compare (Xheal_graph.Graph.nodes graph))
  in
  let byzantine = schedule ~behaviour:bfs_behaviour ~placement ~ids:non_root ~k ~t in
  let plan =
    if byzantine = [] then Fault_plan.none
    else Fault_plan.make ~seed:(0x0b14 + (t * 263) + (k * 19)) ~byzantine ()
  in
  let stats, collected = Bfs.run_robust ~plan ~defense ~max_rounds ~graph ~root:0 () in
  if not stats.Netsim.converged then Loud
  else if collected <> Some expected then Corrupt
  else Clean

(* Largest fraction such that every fraction up to it was corruption-
   free; corruption at the very first fraction gives -1 → reported as
   the fraction below the sweep (0 is the honest row, always clean by
   assertion). *)
let threshold ~fractions ~corrupt_at =
  let rec go acc = function
    | [] -> acc
    | f :: rest -> if corrupt_at f > 0 then acc else go f rest
  in
  go (-1.0) fractions

(* The message premium of each defense on one fixed Byzantine scenario,
   the same in quick and full mode: election + BFS-echo on [premium_m]
   nodes under the quick round cap, node 1 equivocating and node 3
   corrupting payloads. Messages and words are summed over both
   protocols; the confirm and vote deliveries (the defenses' own
   traffic) are read back through the observability registry
   ([netsim.delivered.*] counters). Premium is messages over the
   undefended run's. *)
let premium_m = 16

let premium_table () =
  let max_rounds = max_rounds_for ~quick:true in
  let parts = List.init premium_m Fun.id in
  let graph = Gen.random_h_graph ~rng:(Exp.seeded 1499) premium_m 2 in
  let byzantine = [ (1, Fault_plan.Equivocate); (3, Fault_plan.Corrupt_payload) ] in
  let rows =
    List.map
      (fun (dname, defense) ->
        let obs = Xheal_obs.Scope.create () in
        let plan = Fault_plan.make ~seed:0x0e14 ~byzantine () in
        let es, _ =
          Election.run_robust ~rng:(Exp.seeded 1401) ~obs ~plan ~defense ~max_rounds parts
        in
        let bs, _ = Bfs.run_robust ~obs ~plan ~defense ~max_rounds ~graph ~root:0 () in
        let counters = Xheal_obs.Metrics.counters obs.Xheal_obs.Scope.metrics in
        let delivered kind =
          Option.value ~default:0 (List.assoc_opt ("netsim.delivered." ^ kind) counters)
        in
        ( dname,
          es.Netsim.messages + bs.Netsim.messages,
          [ es.Netsim.words + bs.Netsim.words; delivered "confirm"; delivered "vote" ] ))
      defenses
  in
  let undefended = match rows with (_, messages, _) :: _ -> messages | [] -> 1 in
  Table.render
    ~header:[ "defense"; "messages"; "words"; "confirms"; "votes"; "premium" ]
    (List.map
       (fun (dname, messages, counts) ->
         (dname :: string_of_int messages :: List.map string_of_int counts)
         @ [ Table.fmt_ratio (float_of_int messages /. float_of_int undefended) ])
       rows)

let run ~quick =
  let m = if quick then 16 else 24 in
  let trials = if quick then 3 else 6 in
  let max_rounds = max_rounds_for ~quick in
  let d = 2 in
  let fractions = [ 0.0; 0.125; 0.25; 0.375 ] in
  let graph = Gen.random_h_graph ~rng:(Exp.seeded 1499) m d in
  let expected = List.sort Int.compare (Xheal_graph.Graph.nodes graph) in
  let ok = ref true in
  (* cells.(placement_idx) : (defense name, fraction -> (elect corrupt,
     bfs corrupt, loud)) *)
  let results =
    List.concat_map
      (fun placement ->
        List.map
          (fun (dname, defense) ->
            let per_fraction =
              List.map
                (fun frac ->
                  let k = int_of_float ((frac *. float_of_int m) +. 0.5) in
                  let ec = ref 0 and bc = ref 0 and loud = ref 0 in
                  for t = 1 to trials do
                    (match election_trial ~m ~max_rounds ~placement ~defense ~k ~t with
                    | Corrupt -> incr ec
                    | Loud -> incr loud
                    | Clean -> ());
                    match bfs_trial ~graph ~expected ~max_rounds ~placement ~defense ~k ~t with
                    | Corrupt -> incr bc
                    | Loud -> incr loud
                    | Clean -> ()
                  done;
                  (frac, (!ec, !bc, !loud)))
                fractions
            in
            (placement, dname, per_fraction))
          defenses)
      [ Bridge; Spread ]
  in
  (* Honest row: every configuration must be clean and quiet at f = 0 —
     the defenses may cost messages, never correctness. *)
  List.iter
    (fun (_, _, per_fraction) ->
      match List.assoc_opt 0.0 per_fraction with
      | Some (ec, bc, loud) -> ok := !ok && ec = 0 && bc = 0 && loud = 0
      | None -> ok := false)
    results;
  let thr which (placement, dname) =
    match
      List.find_opt (fun (p, n, _) -> p = placement && String.equal n dname) results
    with
    | None -> -1.0
    | Some (_, _, per_fraction) ->
      threshold ~fractions
        ~corrupt_at:(fun f ->
          match List.assoc_opt f per_fraction with
          | Some (ec, bc, _) -> which (ec, bc)
          | None -> 1)
  in
  let elect_thr cell = thr fst cell in
  let bfs_thr cell = thr snd cell in
  (* The tentpole claim: on bridge placement the full defense stack
     tolerates a strictly higher Byzantine fraction than no defenses,
     for both protocols; random placement never does worse. *)
  ok :=
    !ok
    && elect_thr (Bridge, "all") > elect_thr (Bridge, "none")
    && bfs_thr (Bridge, "all") > bfs_thr (Bridge, "none")
    && elect_thr (Spread, "all") >= elect_thr (Spread, "none")
    && bfs_thr (Spread, "all") >= bfs_thr (Spread, "none");
  let fmt_thr v = if v < 0.0 then "<" ^ Common.f ~d:2 (List.nth fractions 1) else Common.f ~d:2 v in
  let rows =
    List.map
      (fun (placement, dname, per_fraction) ->
        placement_name placement :: dname
        :: List.map
             (fun frac ->
               let ec, bc, loud = List.assoc frac per_fraction in
               Printf.sprintf "%d/%d/%d" ec bc loud)
             (List.tl fractions)
        @ [
            fmt_thr (elect_thr (placement, dname));
            fmt_thr (bfs_thr (placement, dname));
          ])
      results
  in
  let header =
    [ "placement"; "defense" ]
    @ List.map (fun frac -> "f=" ^ Common.f ~d:2 frac) (List.tl fractions)
    @ [ "elect thr"; "bfs thr" ]
  in
  let table = Table.render ~header rows ^ "\n" ^ premium_table () in
  {
    Exp.table;
    notes =
      [
        Exp.note_verdict !ok
          "honest runs stay clean under every defense, and on bridge placement the full \
           defense stack tolerates a strictly higher Byzantine fraction than no defenses \
           (election and BFS-echo)";
        Printf.sprintf
          "m = %d nodes, %d seeded trials per cell, round cap %d; cells are \
           election-corrupt/bfs-corrupt/loud counts per swept fraction" m trials max_rounds;
        "corruption = quiesced on a wrong answer (Byzantine/phantom/foreign leader, honest \
         disagreement or missing belief, phantom or missing component member); round-cap \
         exhaustion is loud failure, not corruption";
        "bridge placement = lowest ids (the election's coordinator rotation); election \
         behaviours cycle equivocate/corrupt/silent, bfs-echo cycles equivocate/corrupt \
         (protocol silence makes the echo unconditionally loud — see test_byzantine.ml); \
         a '<' threshold means corrupted at the first nonzero fraction";
        Printf.sprintf
          "second table: each defense's message premium on one fixed scenario \
           (election + BFS-echo, m = %d, node 1 equivocating and node 3 corrupting, round \
           cap %d); confirms and votes are the defenses' own deliveries, premium is \
           messages over the undefended run's" premium_m (max_rounds_for ~quick:true);
      ];
    ok = !ok;
  }

let exp =
  {
    Exp.id = "E14";
    title = "Byzantine tolerance: equivocating bridges vs. the defense stack";
    claim =
      "in-transit equivocation at the trust-concentrating (bridge) positions silently \
       corrupts the undefended repair protocols at the first nonzero Byzantine fraction; \
       the cross-validation defenses (rank commitments, victory echo, subtree quorum) \
       raise the tolerated fraction strictly, at a bounded message premium";
    run = (fun ~quick -> run ~quick);
  }
