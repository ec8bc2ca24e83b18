type partition = {
  from_round : int;
  until_round : int;
  cut : (int * int) list;
}

type behaviour = Equivocate | Corrupt_payload | Silent_on_protocol

type t = {
  seed : int;
  drop : float;
  duplicate : float;
  delay : float;
  max_delay : int;
  crashes : (int * int) list;
  partitions : partition list;
  byzantine : (int * behaviour) list;
}

let none =
  {
    seed = 0;
    drop = 0.;
    duplicate = 0.;
    delay = 0.;
    max_delay = 1;
    crashes = [];
    partitions = [];
    byzantine = [];
  }

let check_prob name p =
  (* NaN fails both comparisons, so negative, > 1 and NaN rates all land
     here rather than silently skewing the gauntlet's thresholds. *)
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Fault_plan.make: %s must be in [0,1]" name)

let make ?(seed = 0) ?(drop = 0.) ?(duplicate = 0.) ?(delay = 0.) ?(max_delay = 1)
    ?(crashes = []) ?(partitions = []) ?(byzantine = []) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "delay" delay;
  if max_delay < 1 then invalid_arg "Fault_plan.make: max_delay must be >= 1";
  List.iter
    (fun (node, round) ->
      if round < 0 then
        invalid_arg (Printf.sprintf "Fault_plan.make: crash round for node %d is negative" node))
    crashes;
  (* [severed] never activates an empty window. *)
  List.iter
    (fun p ->
      if p.until_round <= p.from_round then
        invalid_arg
          (Printf.sprintf "Fault_plan.make: partition until_round %d must exceed from_round %d"
             p.until_round p.from_round))
    partitions;
  let ids = List.map fst byzantine in
  let sorted = List.sort_uniq Int.compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Fault_plan.make: duplicate node in byzantine schedule";
  { seed; drop; duplicate; delay; max_delay; crashes; partitions; byzantine }

let is_none t =
  t.drop = 0. && t.duplicate = 0. && t.delay = 0. && t.crashes = []
  && t.partitions = [] && t.byzantine = []

let reseed t k = { t with seed = t.seed + (k * 1_000_003) }

let crash_round t id = List.assoc_opt id t.crashes

let behaviour_of t id = List.assoc_opt id t.byzantine

let severed t ~round ~src ~dst =
  List.exists
    (fun p ->
      round >= p.from_round && round < p.until_round
      && List.exists (fun (a, b) -> (a = src && b = dst) || (a = dst && b = src)) p.cut)
    t.partitions
