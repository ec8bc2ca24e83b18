type t =
  | Insert of { node : int; neighbors : int list }
  | Delete of int
