let log2_ceil m =
  let rec go acc p = if p >= m then acc else go (acc + 1) (2 * p) in
  if m <= 1 then 0 else go 0 1

(* Lexicographic order on (rank, id) duel tickets, spelled out so the
   tiebreak is explicit rather than polymorphic compare at a tuple. *)
let beats ((rank : int), (cand : int)) (rank', cand') =
  rank > rank' || (rank = rank' && cand > cand')

(* Largest k with 2^k dividing i (i > 0). *)
let valuation i =
  let rec go k i = if i land 1 = 1 then k else go (k + 1) (i lsr 1) in
  go 0 i

(* The classic bracket acts on round-number equality (a node duels
   exactly at round = valuation i), so it assumes the synchronous
   schedule, which steps every integer time. Use the robust variant on
   asynchronous schedules. *)
let install ~rng net participants =
  let parts = Array.of_list (List.sort_uniq Int.compare participants) in
  let m = Array.length parts in
  let final_round = log2_ceil m in
  let elected = ref None in
  Array.iteri
    (fun i id ->
      (* Private coin; ties broken by id, so the duel order is total. *)
      let champion = ref (Random.State.int rng 0x3FFFFFFF, id) in
      let handler ~now ~inbox =
        List.iter
          (fun (_, msg) ->
            match msg with
            | Msg.Challenge { rank; candidate } ->
              if beats (rank, candidate) !champion then champion := (rank, candidate)
            | Msg.Victory { leader; _ } -> elected := Some leader
            | _ -> ())
          inbox;
        if i > 0 && now = valuation i then
          [ (parts.(i - (1 lsl now)), Msg.Challenge { rank = fst !champion; candidate = snd !champion }) ]
        else if i = 0 && now = final_round then begin
          let leader = snd !champion in
          elected := Some leader;
          Array.to_list
            (Array.map (fun other -> (other, Msg.Victory { leader; members = Array.to_list parts }))
               (Array.sub parts 1 (m - 1)))
        end
        else []
      in
      Netsim.add_node net id handler)
    parts;
  fun () -> !elected

let run ~rng ?obs participants =
  Proto_obs.with_span obs "election" (fun () ->
      let net = Netsim.create ?obs () in
      let get = install ~rng net participants in
      let stats = Netsim.run net in
      (stats, get ()))

(* Virtual-time units one coordinator epoch lasts: a crashed
   coordinator is routed around after this long. *)
let epoch_rounds = 16

(* Unacked Victory sends to one member before it is given up on. *)
let give_up = 12

(* Fault-tolerant variant. The bracket tournament above assumes every
   duel message lands on schedule; one loss silently corrupts the
   result. Here each participant repeatedly challenges a coordinator
   until it learns the outcome, and coordinators rotate: epoch e's
   coordinator is the (e+1)-th lowest id, so a crashed coordinator is
   routed around after [epoch_rounds] silent time units — the "leader
   re-election on crash detection" path. The coordinator decides once
   it has heard everyone (fast path) or half an epoch has elapsed
   (crash/loss path), then broadcasts Victory until each member acks,
   giving up on a member after [give_up] unacked sends so crashed
   members cannot prevent quiescence.

   All timeouts are elapsed virtual time (epoch = now / epoch_rounds,
   retries fire when now >= next_retry), never round-number equality,
   so the protocol runs unchanged on asynchronous schedules where nodes
   only step at event times. Under heavy delay the coordinator's
   deadline can pass before any challenge arrives; it then elects from
   what it has heard (possibly itself) — still a valid participant,
   which is the guarantee the repair pipeline needs.

   Byzantine defenses (each toggleable via [defense], all off by
   default so the plain robust protocol is unchanged):

   - rank_commit: every node remembers the first rank announced for
     each candidate. A conflicting later rank (an equivocator tells two
     stories) or a rank outside the honest coin domain [0, 2^30)
     brands the candidate a liar; the champion is then recomputed from
     the surviving commitments, so a forged rank cannot win the
     coordinator's championship once the lie is witnessed. A candidate
     only enters the championship once its rank is confirmed — seen at
     least twice, consistently — and the coordinator's heard-everyone
     fast path waits for every commitment to settle (confirmed or
     branded), because an equivocator's per-send rewrites can only be
     caught on the second receipt: deciding on single receipts would
     let one forged rank through unexamined. Honest ranks repeat on the
     challenge retry cadence, so confirmation costs a few extra time
     units, never liveness.

   - victory_echo: a Victory is not adopted on first receipt. The
     receiver parks it as pending and asks a rotating witness (Confirm
     query over a second path — the witness link, not the sender's)
     whether it also believes that leader won. Witnesses answer only
     from their own adopted belief, and beliefs only originate at a
     deciding coordinator, so an in-transit forgery can never be
     confirmed: the lying payload names a leader nobody decided. Acks
     flow to the Victory sender only after confirmation, and mismatched
     confirmations clear the pending claim, putting the node back in
     the challenge loop until an honest epoch broadcasts consistently. *)
let install_robust ~rng ?obs ?(backoff = Backoff.default) ?(defense = Defense.none)
    ?beliefs net participants =
  let parts = Array.of_list (List.sort_uniq Int.compare participants) in
  let m = Array.length parts in
  let elected = ref None in
  let in_coin_domain rank = rank >= 0 && rank < 0x3FFFFFFF in
  Array.iter
    (fun id ->
      let my_rank = (Random.State.int rng 0x3FFFFFFF, id) in
      let champion = ref my_rank in
      (* rank_commit state: first announced rank per candidate with its
         consistent-receipt count, plus the candidates caught announcing
         two (or out-of-domain) ranks. *)
      let commits : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
      let liars : (int, unit) Hashtbl.t = Hashtbl.create 4 in
      let current_champion () =
        if not defense.Defense.rank_commit then !champion
        else
          Hashtbl.fold (* xlint: order-independent *)
            (fun candidate (rank, seen) best ->
              if seen < 2 || Hashtbl.mem liars candidate then best
              else if beats (rank, candidate) best then (rank, candidate)
              else best)
            commits my_rank
      in
      (* Every commitment settled: confirmed by a repeat receipt, or the
         candidate already branded a liar. Gates the fast path. *)
      let commits_settled () =
        Hashtbl.fold (* xlint: order-independent *)
          (fun candidate (_, seen) acc -> acc && (seen >= 2 || Hashtbl.mem liars candidate))
          commits true
      in
      let heard = Hashtbl.create (max 8 m) in
      let learned = ref None in
      (* Without the echo defense a belief is final on first adoption.
         With it, adoption stays revisable: a later witness-confirmed
         claim overwrites, so a belief seeded by a Byzantine epoch's
         partial broadcast heals toward the honest epoch's decision
         instead of freezing a split. *)
      let adopt ~leader =
        if defense.Defense.victory_echo || !learned = None then begin
          learned := Some leader;
          elected := Some leader;
          match beliefs with
          | Some tbl -> Hashtbl.replace tbl id leader
          | None -> ()
        end
      in
      (* victory_echo state: the unconfirmed claim (sender, leader) and
         a query counter that rotates the witness each retry. *)
      let pending = ref None in
      let witness_tries = ref 0 in
      let witness_for ~src =
        (* Deterministic rotation over all participants, skipping self
           and the claim's sender: a second path. Cycles through every
           node, so an honest believer is eventually consulted. *)
        let rec pick i =
          if i >= m then None
          else
            let w = parts.((!witness_tries + i) mod m) in
            if w <> id && w <> src then Some w else pick (i + 1)
        in
        incr witness_tries;
        pick 0
      in
      let decided = ref false in
      let next_retry = ref 0 in
      let attempt = ref 0 in
      let acked = Hashtbl.create (max 8 m) in
      let sends = Hashtbl.create (max 8 m) in
      let handler ~now ~inbox =
        let out = ref [] in
        let retry_due = now >= !next_retry in
        if retry_due then begin
          next_retry := now + Backoff.interval backoff ~node:id ~attempt:!attempt;
          incr attempt
        end;
        List.iter
          (fun (src, msg) ->
            match msg with
            | Msg.Challenge { rank; candidate } ->
              if defense.Defense.rank_commit then begin
                if not (in_coin_domain rank) then Hashtbl.replace liars candidate ()
                else begin
                  match Hashtbl.find_opt commits candidate with
                  | Some (r0, _) when r0 <> rank -> Hashtbl.replace liars candidate ()
                  | Some (r0, seen) -> Hashtbl.replace commits candidate (r0, seen + 1)
                  | None -> Hashtbl.replace commits candidate (rank, 1)
                end
              end
              else if beats (rank, candidate) !champion then champion := (rank, candidate);
              Hashtbl.replace heard src ()
            | Msg.Victory { leader; _ } ->
              if not defense.Defense.victory_echo then begin
                adopt ~leader;
                out := (src, Msg.Ack) :: !out
              end
              else begin
                match !learned with
                | Some l when l = leader -> out := (src, Msg.Ack) :: !out
                | Some _ | None -> (
                  (* Unlearned, or learned a different leader: park the
                     claim and re-verify over a second path. A claim
                     that disagrees with the adopted belief is not
                     silently dropped — if witnesses confirm it, the
                     belief switches (see [adopt]), which is what heals
                     a partially-propagated Byzantine-epoch belief. *)
                  match witness_for ~src with
                  | Some w ->
                    pending := Some (src, leader);
                    out := (w, Msg.Confirm { leader; reply = false }) :: !out
                  | None ->
                    (* m <= 2: no second path exists, the defense is
                       vacuous — adopt directly. *)
                    adopt ~leader;
                    out := (src, Msg.Ack) :: !out)
              end
            | Msg.Confirm { leader; reply = false } -> (
              (* Witness role: answer only from an adopted belief —
                 never from a pending (unconfirmed) claim. *)
              match !learned with
              | Some l -> out := (src, Msg.Confirm { leader = l; reply = true }) :: !out
              | None -> ignore leader)
            | Msg.Confirm { leader; reply = true } -> (
              match !pending with
              | Some (vsrc, claimed) ->
                if claimed = leader then begin
                  adopt ~leader;
                  pending := None;
                  out := (vsrc, Msg.Ack) :: !out
                end
                else
                  (* The witness believes otherwise: discard the claim
                     and fall back into the challenge loop. *)
                  pending := None
              | None -> ())
            | Msg.Ack -> Hashtbl.replace acked src ()
            | _ -> ())
          inbox;
        let epoch = min (now / epoch_rounds) (m - 1) in
        let coord = parts.(epoch) in
        let just_decided = ref false in
        if id = coord && (not !decided) && !learned = None then begin
          let all_heard =
            Hashtbl.length heard >= m - 1
            && ((not defense.Defense.rank_commit) || commits_settled ())
          in
          let deadline = (epoch * epoch_rounds) + (epoch_rounds / 2) in
          if all_heard || now >= deadline then begin
            let leader = snd (current_champion ()) in
            decided := true;
            just_decided := true;
            adopt ~leader;
            Proto_obs.instant obs ~track:id ~name:"elected" ~now
          end
        end;
        (match (!decided, !learned) with
        | true, Some leader when !just_decided || retry_due ->
          Array.iter
            (fun other ->
              if other <> id && not (Hashtbl.mem acked other) then begin
                let c = Option.value ~default:0 (Hashtbl.find_opt sends other) in
                if c < give_up then begin
                  Hashtbl.replace sends other (c + 1);
                  out :=
                    (other, Msg.Victory { leader; members = Array.to_list parts }) :: !out
                end
              end)
            parts
        | _ -> ());
        if (not !decided) && !learned = None && id <> coord && retry_due then begin
          (* Re-query a (rotated) witness for a still-pending claim on
             the same cadence as challenges, in case the first query or
             its reply was lost. *)
          (match !pending with
          | Some (vsrc, claimed) when defense.Defense.victory_echo -> (
            match witness_for ~src:vsrc with
            | Some w -> out := (w, Msg.Confirm { leader = claimed; reply = false }) :: !out
            | None -> ())
          | _ -> ());
          let rank, candidate = current_champion () in
          out := (coord, Msg.Challenge { rank; candidate }) :: !out
        end;
        !out
      in
      Netsim.add_node net id handler)
    parts;
  fun () -> !elected

let run_robust ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(backoff = Backoff.default) ?defense ?beliefs ?max_rounds participants =
  Proto_obs.with_span obs "election" (fun () ->
      let net = Netsim.create ?obs () in
      let get =
        install_robust ~rng ?obs ~backoff ?defense ?beliefs net participants
      in
      (* The grace window must cover the longest possible retry wait, or
         a capped-backoff retry could be quiesced out from under the
         protocol. *)
      let grace = (2 * Backoff.max_interval backoff) + 2 in
      let stats = Netsim.run ?max_rounds ~plan ~grace ~schedule net in
      (stats, get ()))
