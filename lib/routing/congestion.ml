module Edge = Xheal_graph.Edge

type report = {
  pairs_routed : int;
  max_load : int;
  mean_load : float;
  busiest : Edge.t option;
}

let loads_table tables =
  let loads = Edge.Table.create 256 in
  let bump u v =
    let e = Edge.make u v in
    Edge.Table.replace loads e (1 + Option.value ~default:0 (Edge.Table.find_opt loads e))
  in
  let pairs = ref 0 in
  let ns = Tables.nodes tables in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d then
            match Tables.route tables ~src:s ~dst:d with
            | None -> ()
            | Some r ->
              incr pairs;
              let rec hops = function
                | a :: (b :: _ as rest) ->
                  bump a b;
                  hops rest
                | _ -> ()
              in
              hops r)
        ns)
    ns;
  (loads, !pairs)

let route_all tables =
  let loads, pairs = loads_table tables in
  let max_load = ref 0 and total = ref 0 and count = ref 0 and busiest = ref None in
  (* Sums, and a maximum whose ties go to the least edge: the bucket
     order reaches no field of the report. *)
  (* xlint: order-independent *)
  Edge.Table.iter
    (fun e l ->
      incr count;
      total := !total + l;
      let heavier =
        match !busiest with
        | None -> true
        | Some b -> l > !max_load || (l = !max_load && Edge.compare e b < 0)
      in
      if heavier then begin
        max_load := l;
        busiest := Some e
      end)
    loads;
  {
    pairs_routed = pairs;
    max_load = !max_load;
    mean_load = (if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count);
    busiest = !busiest;
  }

let measure g = route_all (Tables.build g)
