module Edge = Xheal_graph.Edge
module Hgraph = Xheal_expander.Hgraph

(* Lexicographic order on undirected-edge endpoint pairs. *)
let compare_endpoints (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let plan_edges ~rng ~d members =
  let z = List.length members in
  if z <= 1 then []
  else if z <= (2 * d) + 1 then
    (* Clique for small clouds, as in Algorithm 3.2. *)
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) members)
      members
  else
    let h = Hgraph.create ~rng ~d members in
    List.map Edge.endpoints (Hgraph.edges h)

(* Fault-tolerant build: the leader resends each member's Edges list
   on the [backoff] cadence until that member acks, and fresh
   edges are handshaken with retries. The handshake is asymmetric so it
   terminates: the lower-id endpoint initiates and resends Hello until
   it hears back; the higher-id endpoint replies Hello to each receipt
   (never initiating), so every retransmission chain is driven by
   exactly one side. Edge receipt and handshake state are idempotent, so
   duplicates and delays are harmless; a crashed member leaves the run
   retrying until max_rounds, which reports [converged = false].

   Retries fire on elapsed virtual time (now >= next_retry), not round
   multiples, so the build is schedule-agnostic.

   edge_mutual defense: a Byzantine leader's Edges list is rewritten in
   transit, so a member may be told about an edge its peer was never
   told about. With the defense on, the higher-id endpoint answers a
   Hello only when the initiating peer appears in its own incident
   list, so a one-sided (forged) edge is never established; Hello
   probing is also capped at [give_up] attempts per peer. Phantom
   endpoints are unregistered, so probing them never blocks quiescence
   (those sends are dropped, not activity) — the cap bounds the probe
   traffic wasted on them while the run is otherwise alive. With the
   defense off, retries are unbounded — a crashed (registered) peer
   then shows up as [converged = false]. *)
let run_robust ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(backoff = Backoff.default) ?(defense = Defense.none) ?(give_up = 12) ?max_rounds ~d
    ~leader ~members () =
  if not (List.mem leader members) then
    invalid_arg "Cloud_build.run_robust: leader must be a member";
  Proto_obs.with_span obs "cloud-build" (fun () ->
  let mutual = defense.Defense.edge_mutual in
  let edges = plan_edges ~rng ~d members in
  let incident u = List.filter (fun (a, b) -> a = u || b = u) edges in
  let net = Netsim.create ?obs () in
  List.iter
    (fun u ->
      let my_edges = ref (if u = leader then Some (incident u) else None) in
      let got_hello = Hashtbl.create 8 in
      let edges_acked = Hashtbl.create 8 in
      let hello_tries = Hashtbl.create 8 in
      let next_retry = ref 0 in
      let attempt = ref 0 in
      let peers () =
        match !my_edges with
        | None -> []
        | Some es -> List.map (fun (a, b) -> if a = u then b else a) es
      in
      let handler ~now ~inbox =
        let out = ref [] in
        let retry_due = now >= !next_retry in
        if retry_due then begin
          next_retry := now + Backoff.interval backoff ~node:u ~attempt:!attempt;
          incr attempt
        end;
        let fresh = ref (now = 0 && u = leader) in
        List.iter
          (fun (src, msg) ->
            match msg with
            | Msg.Edges es ->
              if !my_edges = None then begin
                my_edges := Some es;
                fresh := true
              end;
              out := (src, Msg.Ack) :: !out
            | Msg.Hello ->
              (* Mutuality check: believe a handshake only if my own
                 edge list corroborates it. Before my Edges arrive I
                 stay silent; the initiator's retries cover the gap. *)
              if (not mutual) || List.mem src (peers ()) then begin
                Hashtbl.replace got_hello src ();
                if src < u then out := (src, Msg.Hello) :: !out
              end
            | Msg.Ack -> if u = leader then Hashtbl.replace edges_acked src ()
            | _ -> ())
          inbox;
        if u = leader && retry_due then
          List.iter
            (fun v ->
              if v <> leader && not (Hashtbl.mem edges_acked v) then
                out := (v, Msg.Edges (incident v)) :: !out)
            members;
        let pending =
          List.filter (fun p -> p > u && not (Hashtbl.mem got_hello p)) (peers ())
        in
        if !fresh || (retry_due && pending <> []) then
          List.iter
            (fun p ->
              let c = Option.value ~default:0 (Hashtbl.find_opt hello_tries p) in
              if (not mutual) || c < give_up then begin
                Hashtbl.replace hello_tries p (c + 1);
                out := (p, Msg.Hello) :: !out
              end)
            pending;
        !out
      in
      Netsim.add_node net u handler)
    members;
  let grace = (2 * Backoff.max_interval backoff) + 2 in
  let stats = Netsim.run ?max_rounds ~plan ~grace ~schedule net in
  (stats, List.sort compare_endpoints edges))

(* The classic build is purely message-driven after the time-0 leader
   wake-up, so it is safe on any schedule — but it has no retries, so
   it assumes lossless delivery. *)
let run ~rng ?obs ~d ~leader ~members () =
  if not (List.mem leader members) then invalid_arg "Cloud_build.run: leader must be a member";
  Proto_obs.with_span obs "cloud-build" (fun () ->
  let edges = plan_edges ~rng ~d members in
  let incident u = List.filter (fun (a, b) -> a = u || b = u) edges in
  let net = Netsim.create ?obs () in
  List.iter
    (fun u ->
      let my_edges = ref (if u = leader then incident u else []) in
      let handler ~now ~inbox =
        let out = ref [] in
        List.iter
          (fun (_, msg) ->
            match msg with
            | Msg.Edges es ->
              my_edges := es;
              (* Handshake every fresh incident edge. *)
              List.iter
                (fun (a, b) ->
                  let peer = if a = u then b else a in
                  out := (peer, Msg.Hello) :: !out)
                es
            | _ -> ())
          inbox;
        if now = 0 && u = leader then begin
          List.iter
            (fun v -> if v <> leader then out := (v, Msg.Edges (incident v)) :: !out)
            members;
          (* The leader handshakes its own edges immediately. *)
          List.iter
            (fun (a, b) ->
              let peer = if a = u then b else a in
              out := (peer, Msg.Hello) :: !out)
            !my_edges
        end;
        !out
      in
      Netsim.add_node net u handler)
    members;
  let stats = Netsim.run net in
  (stats, List.sort compare_endpoints edges))
