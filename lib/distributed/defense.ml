type t = {
  victory_echo : bool;
  rank_commit : bool;
  subtree_quorum : bool;
  edge_mutual : bool;
}

let none =
  { victory_echo = false; rank_commit = false; subtree_quorum = false; edge_mutual = false }

let all =
  { victory_echo = true; rank_commit = true; subtree_quorum = true; edge_mutual = true }

let make ?(victory_echo = false) ?(rank_commit = false) ?(subtree_quorum = false)
    ?(edge_mutual = false) () =
  { victory_echo; rank_commit; subtree_quorum; edge_mutual }

type policy = Static of t | Adaptive of { relaxed : t; escalated : t }

let static d = Static d

let adaptive = Adaptive { relaxed = none; escalated = all }
