(* [Hashtbl.Make] over [int] with [Int.equal] and the identity hash:
   [Hashtbl.Make] masks the hash to the bucket count, so the identity
   needs no [land max_int]. *)
module H = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

type 'a t = 'a H.t

let create = H.create
let copy = H.copy
let length = H.length
let mem = H.mem
let find = H.find
let find_opt = H.find_opt
let add = H.add
let replace = H.replace
let remove = H.remove
(* Re-exported: D2 holds each caller of these two to its own order. *)
let iter = H.iter (* xlint: order-independent *)
let fold = H.fold (* xlint: order-independent *)
