type t =
  | Challenge of { rank : int; candidate : int }
  | Victory of { leader : int; members : int list }
  | Explore of { root : int; dist : int }
  | Accept
  | Reject
  | Subtree of int list
  | Edges of (int * int) list
  | Hello
  | Ack
  | Confirm of { leader : int; reply : bool }
  | Vote of { claim : int; accept : bool }
  | Beat
  | Suspect of { target : int }
  | Refute of { target : int }

let size_words = function
  | Challenge _ -> 2
  | Victory { members; _ } -> 1 + List.length members
  | Explore _ -> 2
  | Accept | Reject | Hello | Ack | Beat -> 1
  | Subtree addrs -> max 1 (List.length addrs)
  | Edges es -> max 1 (2 * List.length es)
  | Confirm _ -> 2
  | Vote _ -> 2
  | Suspect _ | Refute _ -> 2

let tag = function
  | Challenge _ -> 0
  | Victory _ -> 1
  | Explore _ -> 2
  | Accept -> 3
  | Reject -> 4
  | Subtree _ -> 5
  | Edges _ -> 6
  | Hello -> 7
  | Ack -> 8
  | Confirm _ -> 9
  | Vote _ -> 10
  | Beat -> 11
  | Suspect _ -> 12
  | Refute _ -> 13

let kinds =
  [| "challenge"; "victory"; "explore"; "accept"; "reject"; "subtree"; "edges"; "hello";
     "ack"; "confirm"; "vote"; "beat"; "suspect"; "refute" |]
