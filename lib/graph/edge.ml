type t = int * int

let make u v =
  if u = v then invalid_arg "Edge.make: self-loop"
  else if u < v then (u, v)
  else (v, u)

let endpoints e = e

let src (u, _) = u

let dst (_, v) = v

let mem (u, v) x = x = u || x = v

let compare (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2

let hash (u, v) = (u * 0x9e3779b1) lxor v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
