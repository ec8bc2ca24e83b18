(* Test-side fixture builders and oracles: what the suite needs that
   the shipped system does not, so it lives here and not in lib/
   (xlint's U1 keeps it out). Each helper is written on the public API
   of the modules it serves. *)

module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Traversal = Xheal_graph.Traversal

(* ------------------------------------------------------------------ *)
(* Graph fixtures.                                                    *)

(* The graph with the given edges (duplicates ignored) plus any extra
   isolated [nodes]. Raises [Invalid_argument] on a self-loop or a
   negative id, as [Graph.add_edge] does. *)
let of_edges ?(nodes = []) es =
  let g = Graph.create () in
  List.iter (fun u -> Graph.add_node g u) nodes;
  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) es;
  g

(* The subgraph induced on [ns]. *)
let sub g ns =
  let g' = Graph.create ~capacity:(List.length ns) () in
  List.iter (fun u -> if Graph.has_node g u then Graph.add_node g' u) ns;
  List.iter
    (fun u ->
      List.iter
        (fun v -> if u < v && Graph.has_node g' v then ignore (Graph.add_edge g' u v))
        (Graph.neighbors g u))
    ns;
  g'

(* Adds every node and edge of [src] into [dst]. *)
let union_into ~dst src =
  Graph.iter_nodes (fun u -> Graph.add_node dst u) src;
  Graph.iter_edges (fun e -> ignore (Graph.add_edge dst (Edge.src e) (Edge.dst e))) src

(* Same node set and same edge set. *)
let graph_equal g1 g2 =
  Graph.num_nodes g1 = Graph.num_nodes g2
  && Graph.num_edges g1 = Graph.num_edges g2
  && Graph.fold_nodes (fun u acc -> acc && Graph.has_node g2 u) g1 true
  && Graph.fold_edges (fun e acc -> acc && Graph.has_edge g2 (Edge.src e) (Edge.dst e)) g1 true

(* [K_{a,b}]: nodes [0..a-1] on one side, [a..a+b-1] on the other. *)
let complete_bipartite a b =
  let g = Xheal_graph.Generators.empty (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      ignore (Graph.add_edge g u v)
    done
  done;
  g

(* The [d]-dimensional hypercube on [2^d] nodes (known spectrum). *)
let hypercube d =
  let n = 1 lsl d in
  let g = Xheal_graph.Generators.empty n in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then ignore (Graph.add_edge g u v)
    done
  done;
  g

(* The complete binary tree shape on [n] nodes (heap indexing). *)
let binary_tree n =
  let g = Xheal_graph.Generators.empty n in
  for u = 1 to n - 1 do
    ignore (Graph.add_edge g u ((u - 1) / 2))
  done;
  g

(* A copy with every node id shifted by [offset]. *)
let relabel ~offset g =
  let g' = Graph.create ~capacity:(Graph.num_nodes g) () in
  Graph.iter_nodes (fun u -> Graph.add_node g' (u + offset)) g;
  Graph.iter_edges
    (fun e -> ignore (Graph.add_edge g' (Edge.src e + offset) (Edge.dst e + offset)))
    g;
  g'

(* ------------------------------------------------------------------ *)
(* Graph oracles.                                                     *)

(* The number of edges with exactly one endpoint in [set]. *)
let cut_size g set =
  let inside = Hashtbl.create (List.length set) in
  List.iter (fun u -> Hashtbl.replace inside u ()) set;
  Graph.fold_edges
    (fun e acc ->
      let a = Hashtbl.mem inside (Edge.src e) and b = Hashtbl.mem inside (Edge.dst e) in
      if a <> b then acc + 1 else acc)
    g 0

(* The hop distance from [s] to [t] by the Monitor's pair kernel on
   fresh scratch; [None] if they are disconnected or either is absent. *)
let distance g s t =
  let a = Graph.slot_of g s and b = Graph.slot_of g t in
  if a < 0 || b < 0 then None
  else
    let v = Graph.view g in
    let dist = Array.make v.Graph.v_used (-1) and queue = Array.make v.Graph.v_used 0 in
    match Traversal.slot_pair_distance v ~dist ~queue ~visited:(ref 0) a b with
    | -1 -> None
    | d -> Some d

(* ------------------------------------------------------------------ *)
(* Linear algebra.                                                    *)

(* Componentwise comparison of two vectors, absolute tolerance [tol]. *)
let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if Float.abs (v -. y.(i)) > tol then ok := false) x;
  !ok

(* The dense product [Ax], row by row. *)
let matvec (a : Xheal_linalg.Dense.t) x = Array.map (fun row -> Xheal_linalg.Vec.dot row x) a

(* [‖Av - lambda v‖]: how far [(lambda, v)] is from an eigenpair of [a]. *)
let residual a lambda v =
  Xheal_linalg.Vec.norm2 (Array.mapi (fun i av -> av -. (lambda *. v.(i))) (matvec a v))

(* ------------------------------------------------------------------ *)
(* Engine, adversary, routing and protocol helpers.                   *)

(* The number of black edges at [u] in the engine's network. *)
let black_degree eng u =
  let module Xheal = Xheal_core.Xheal in
  List.length (List.filter (Xheal.is_black_edge eng u) (Graph.neighbors (Xheal.graph eng) u))

(* Nodes present in both [G_t] and [G'_t], i.e. never deleted. *)
let live_nodes d =
  let module Driver = Xheal_adversary.Driver in
  List.filter (Graph.has_node (Driver.gprime d)) (Graph.nodes (Driver.graph d))

(* A strategy that replays a fixed event list. *)
let scripted events =
  let remaining = ref events in
  {
    Xheal_adversary.Strategy.name = "scripted";
    next =
      (fun _ ->
        match !remaining with
        | [] -> None
        | e :: rest ->
          remaining := rest;
          Some e);
  }

(* Ordered pairs [(s, d)], [s <> d], with a route. *)
let reachable_pairs t =
  let nodes = Xheal_routing.Tables.nodes t in
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc d ->
          if s <> d && Xheal_routing.Tables.next_hop t ~src:s ~dst:d <> None then acc + 1
          else acc)
        acc nodes)
    0 nodes

(* Every next hop of the tables is an edge of [g], and every route
   ends at its destination after as many hops as the recorded
   distance. *)
let check_tables t g =
  let module Tables = Xheal_routing.Tables in
  let nodes = Graph.nodes g in
  let bad =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            match Tables.next_hop t ~src ~dst with
            | None -> None
            | Some hop when not (Graph.has_edge g src hop) ->
              Some (Printf.sprintf "next hop %d->%d via %d is not an edge" src dst hop)
            | Some _ -> (
              match (Tables.route t ~src ~dst, Tables.distance t ~src ~dst) with
              | Some r, Some d when List.length r - 1 = d -> None
              | Some r, _ ->
                Some (Printf.sprintf "route %d->%d has length %d" src dst (List.length r - 1))
              | None, _ -> Some (Printf.sprintf "route %d->%d does not terminate" src dst)))
          nodes)
      nodes
  in
  match bad with [] -> Ok () | m :: _ -> Error m

(* A one-line rendering of a protocol message, led by its kind. *)
let pp_msg ppf (m : Xheal_distributed.Msg.t) =
  match m with
  | Challenge { rank; candidate } -> Format.fprintf ppf "challenge(rank=%d, from=%d)" rank candidate
  | Victory { leader; members } -> Format.fprintf ppf "victory(%d, |m|=%d)" leader (List.length members)
  | Explore { root; dist } -> Format.fprintf ppf "explore(root=%d, d=%d)" root dist
  | Accept -> Format.fprintf ppf "accept"
  | Reject -> Format.fprintf ppf "reject"
  | Subtree addrs -> Format.fprintf ppf "subtree(|%d|)" (List.length addrs)
  | Edges es -> Format.fprintf ppf "edges(|%d|)" (List.length es)
  | Hello -> Format.fprintf ppf "hello"
  | Ack -> Format.fprintf ppf "ack"
  | Confirm { leader; reply } ->
    Format.fprintf ppf "confirm(%d, %s)" leader (if reply then "reply" else "query")
  | Vote { claim; accept } ->
    Format.fprintf ppf "vote(%d, %s)" claim (if accept then "yes" else "ask")
  | Beat -> Format.fprintf ppf "beat"
  | Suspect { target } -> Format.fprintf ppf "suspect(%d)" target
  | Refute { target } -> Format.fprintf ppf "refute(%d)" target

(* ------------------------------------------------------------------ *)
(* JSON reader.                                                       *)

(* A small recursive-descent parser into [Jsonw.t], covering the JSON
   the [Jsonw] writers emit (and standard JSON generally, minus [\u]
   escapes beyond ASCII). The shipped system only writes JSON; the
   suite reads it back to check exported records and the SARIF log
   without external dependencies. *)
module Json = struct
  open Xheal_obs.Jsonw

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  exception Parse_error of string

  type cursor = { src : string; mutable pos : int }

  let fail c msg = raise (Parse_error (Printf.sprintf "offset %d: %s" c.pos msg))

  let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

  let advance c = c.pos <- c.pos + 1

  let skip_ws c =
    let rec go () =
      match peek c with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
      | _ -> ()
    in
    go ()

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | Some x -> fail c (Printf.sprintf "expected %c, found %c" ch x)
    | None -> fail c (Printf.sprintf "expected %c, found end of input" ch)

  let literal c word value =
    let n = String.length word in
    if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
      c.pos <- c.pos + n;
      value
    end
    else fail c (Printf.sprintf "expected %s" word)

  let parse_string_body c =
    let b = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> fail c "unterminated string"
      | Some '"' -> advance c
      | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char b '/'; go ()
        | Some 'u' ->
          advance c;
          if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
          let hex = String.sub c.src c.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some v -> v
            | None -> fail c "bad \\u escape"
          in
          c.pos <- c.pos + 4;
          if code > 0x7f then fail c "non-ASCII \\u escape unsupported";
          Buffer.add_char b (Char.chr code);
          go ()
        | _ -> fail c "bad escape")
      | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
    in
    go ();
    Buffer.contents b

  let parse_number c =
    let start = c.pos in
    let is_num_char ch =
      match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    let rec go () =
      match peek c with
      | Some ch when is_num_char ch ->
        advance c;
        go ()
      | _ -> ()
    in
    go ();
    let s = String.sub c.src start (c.pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "bad number %S" s))

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> fail c "unexpected end of input"
    | Some 'n' -> literal c "null" Null
    | Some 't' -> literal c "true" (Bool true)
    | Some 'f' -> literal c "false" (Bool false)
    | Some '"' ->
      advance c;
      String (parse_string_body c)
    | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        let rec go () =
          skip_ws c;
          match peek c with
          | Some ',' ->
            advance c;
            items := parse_value c :: !items;
            go ()
          | Some ']' -> advance c
          | _ -> fail c "expected , or ] in array"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          expect c '"';
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          (key, parse_value c)
        in
        let fields = ref [ field () ] in
        let rec go () =
          skip_ws c;
          match peek c with
          | Some ',' ->
            advance c;
            fields := field () :: !fields;
            go ()
          | Some '}' -> advance c
          | _ -> fail c "expected , or } in object"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some ch -> (
      match ch with
      | '0' .. '9' | '-' -> parse_number c
      | _ -> fail c (Printf.sprintf "unexpected character %c" ch))

  let of_string s =
    let c = { src = s; pos = 0 } in
    match parse_value c with
    | v ->
      skip_ws c;
      if c.pos <> String.length s then Error (Printf.sprintf "offset %d: trailing garbage" c.pos)
      else Ok v
    | exception Parse_error msg -> Error msg
end
