module Graph = Xheal_graph.Graph

type node_state = {
  mutable parent : int option;
  mutable visited : bool;
  mutable replies_expected : int;
  mutable children_pending : int;
  mutable collected : int list;
  mutable reported : bool;
}

let install net ~graph ~root =
  if not (Graph.has_node graph root) then invalid_arg "Bfs_echo.install: root not in graph";
  let result = ref None in
  Graph.iter_nodes
    (fun u ->
      let st =
        {
          parent = None;
          visited = false;
          replies_expected = 0;
          children_pending = 0;
          collected = [];
          reported = false;
        }
      in
      let nbrs = Graph.neighbors graph u in
      let finish_if_ready out =
        if
          st.visited && (not st.reported) && st.replies_expected = 0
          && st.children_pending = 0
        then begin
          st.reported <- true;
          if u = root then begin
            result := Some (List.sort Int.compare (root :: st.collected));
            out
          end
          else (Option.get st.parent, Msg.Subtree (u :: st.collected)) :: out
        end
        else out
      in
      let handler ~now ~inbox =
        let out = ref [] in
        if now = 0 && u = root then begin
          st.visited <- true;
          st.replies_expected <- List.length nbrs;
          List.iter (fun v -> out := (v, Msg.Explore { root; dist = 1 }) :: !out) nbrs
        end;
        List.iter
          (fun (src, msg) ->
            match msg with
            | Msg.Explore { root = r; dist } ->
              if st.visited then out := (src, Msg.Reject) :: !out
              else begin
                st.visited <- true;
                st.parent <- Some src;
                out := (src, Msg.Accept) :: !out;
                let others = List.filter (fun v -> v <> src) nbrs in
                st.replies_expected <- List.length others;
                List.iter
                  (fun v -> out := (v, Msg.Explore { root = r; dist = dist + 1 }) :: !out)
                  others
              end
            | Msg.Accept ->
              st.replies_expected <- st.replies_expected - 1;
              st.children_pending <- st.children_pending + 1
            | Msg.Reject -> st.replies_expected <- st.replies_expected - 1
            | Msg.Subtree addrs ->
              st.children_pending <- st.children_pending - 1;
              st.collected <- addrs @ st.collected
            | _ -> ())
          inbox;
        finish_if_ready !out
      in
      Netsim.add_node net u handler)
    graph;
  fun () -> !result

let run ?obs ~graph ~root () =
  Proto_obs.with_span obs "bfs-echo" (fun () ->
      let net = Netsim.create ?obs () in
      let get = install net ~graph ~root in
      let stats = Netsim.run net in
      (stats, get ()))

(* Fault-tolerant flood/echo. Every message that matters is retried
   until acknowledged: Explore is resent to each unresolved neighbour
   on the [Backoff.default] cadence (Accept/Reject double as its ack, and a
   node re-answers duplicate Explores idempotently), and each Subtree
   echo is resent until the parent acks it. Duplicated deliveries are
   deduplicated by per-neighbour state, so drop/dup/delay faults can
   stretch the run but not corrupt the collected component. A crashed
   node permanently withholds its subtree: the run then either quiesces
   with the getter returning [None] or exhausts max_rounds with
   [converged = false] — never a silently wrong component.

   Retries are clocked in elapsed virtual time (fire when
   [now >= next_retry]), not on round-number multiples, so the protocol
   is schedule-agnostic: the async engine only steps nodes at event
   times, where modular round arithmetic would misfire. *)
(* A neighbour with no entry yet is still unresolved. *)
type nstatus = Child | NonChild

(* Vote queries per claimed member before its id is dropped. *)
let give_up = 12

(* subtree_quorum defense: a child's Subtree claim is parked instead of
   merged. The parent asks every claimed member directly (Vote query —
   a path the claiming child does not sit on) whether it really joined
   the flood; only confirmed ids are merged and the child is acked only
   once its claim settles. Phantom ids injected in transit are
   unregistered (or never visited), never confirm, and are discarded
   after [give_up] query attempts — so an equivocator can delay the
   echo but not pad the collected component. *)
let install_robust ?obs ?(defense = Defense.none) net ~graph ~root =
  if not (Graph.has_node graph root) then
    invalid_arg "Bfs_echo.install_robust: root not in graph";
  let quorum = defense.Defense.subtree_quorum in
  let result = ref None in
  Graph.iter_nodes
    (fun u ->
      let visited = ref false in
      let parent = ref None in
      let up_acked = ref false in
      let next_retry = ref 0 in
      let attempt = ref 0 in
      let nbrs = Graph.neighbors graph u in
      let status = Hashtbl.create (max 4 (List.length nbrs)) in
      let subtree = Hashtbl.create 4 in
      (* Quorum state: pending claims per child, plus the global
         confirmed/abandoned id sets and per-id query counters. *)
      let claims : (int, int list) Hashtbl.t = Hashtbl.create 4 in
      let verified : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let rejected : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let vote_tries : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let query out a =
        let c = Option.value ~default:0 (Hashtbl.find_opt vote_tries a) in
        if c < give_up then begin
          Hashtbl.replace vote_tries a (c + 1);
          out := (a, Msg.Vote { claim = a; accept = false }) :: !out
        end
        else Hashtbl.replace rejected a ()
      in
      let handler ~now ~inbox =
        let out = ref [] in
        let retry_due = now >= !next_retry in
        if retry_due then begin
          next_retry := now + Backoff.interval Backoff.default ~node:u ~attempt:!attempt;
          incr attempt
        end;
        let newly_visited = ref false in
        if now = 0 && u = root then begin
          visited := true;
          newly_visited := true
        end;
        List.iter
          (fun (src, msg) ->
            match msg with
            | Msg.Explore _ ->
              if not !visited then begin
                visited := true;
                parent := Some src;
                newly_visited := true;
                out := (src, Msg.Accept) :: !out
              end
              else if !parent = Some src then out := (src, Msg.Accept) :: !out
              else out := (src, Msg.Reject) :: !out
            | Msg.Accept -> Hashtbl.replace status src Child
            | Msg.Reject -> (
              match Hashtbl.find_opt status src with
              | Some Child -> ()
              | _ -> Hashtbl.replace status src NonChild)
            | Msg.Subtree addrs ->
              if quorum then begin
                if
                  (not (Hashtbl.mem subtree src)) && not (Hashtbl.mem claims src)
                then begin
                  Hashtbl.replace claims src addrs;
                  List.iter
                    (fun a ->
                      if
                        (not (Hashtbl.mem verified a))
                        && (not (Hashtbl.mem rejected a))
                        && not (Hashtbl.mem vote_tries a)
                      then query out a)
                    addrs
                end
              end
              else begin
                if not (Hashtbl.mem subtree src) then Hashtbl.replace subtree src addrs;
                out := (src, Msg.Ack) :: !out
              end
            | Msg.Vote { claim; accept = false } ->
              (* Membership probe about myself: confirm only if I really
                 joined the flood. *)
              if claim = u && !visited then
                out := (src, Msg.Vote { claim = u; accept = true }) :: !out
            | Msg.Vote { claim; accept = true } ->
              if src = claim then Hashtbl.replace verified claim ()
            | Msg.Ack -> if !parent = Some src then up_acked := true
            | _ -> ())
          inbox;
        if quorum then begin
          (* Re-query unconfirmed claimed ids on the retry cadence, then
             settle any claim whose members are all confirmed or
             abandoned. Claim order is sorted so vote traffic replays
             identically. *)
          let claim_srcs =
            List.sort Int.compare
              (Hashtbl.fold (fun src _ acc -> src :: acc) claims [])
          in
          List.iter
            (fun src ->
              let addrs = Hashtbl.find claims src in
              if retry_due then
                List.iter
                  (fun a ->
                    if
                      (not (Hashtbl.mem verified a)) && not (Hashtbl.mem rejected a)
                    then query out a)
                  addrs;
              if
                List.for_all
                  (fun a -> Hashtbl.mem verified a || Hashtbl.mem rejected a)
                  addrs
              then begin
                Hashtbl.remove claims src;
                Hashtbl.replace subtree src
                  (List.filter (fun a -> Hashtbl.mem verified a) addrs);
                out := (src, Msg.Ack) :: !out
              end)
            claim_srcs
        end;
        if !visited then begin
          let others = List.filter (fun v -> Some v <> !parent) nbrs in
          let unresolved = List.filter (fun v -> not (Hashtbl.mem status v)) others in
          if !newly_visited || (retry_due && unresolved <> []) then
            List.iter
              (fun v -> out := (v, Msg.Explore { root; dist = now }) :: !out)
              unresolved;
          let complete =
            unresolved = []
            && List.for_all
                 (fun v ->
                   (match Hashtbl.find_opt status v with
                   | Some Child -> false
                   | _ -> true)
                   || Hashtbl.mem subtree v)
                 others
          in
          if complete then begin
            (* Sorted: this list rides up in Subtree payloads, so hash
               order here would make message transcripts depend on
               insertion history rather than the seed alone. *)
            let collected =
              List.sort Int.compare
                (u :: Hashtbl.fold (fun _ addrs acc -> addrs @ acc) subtree [])
            in
            if u = root then begin
              if !result = None then begin
                result := Some (List.sort Int.compare collected);
                Proto_obs.instant obs ~track:u ~name:"collected" ~now
              end
            end
            else if (not !up_acked) && retry_due then
              out := (Option.get !parent, Msg.Subtree collected) :: !out
          end
        end;
        !out
      in
      Netsim.add_node net u handler)
    graph;
  fun () -> !result

let run_robust ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync) ?defense ?max_rounds
    ~graph ~root () =
  Proto_obs.with_span obs "bfs-echo" (fun () ->
      let net = Netsim.create ?obs () in
      let get = install_robust ?obs ?defense net ~graph ~root in
      let grace = (2 * Backoff.max_interval Backoff.default) + 2 in
      let stats = Netsim.run ?max_rounds ~plan ~grace ~schedule net in
      (stats, get ()))
