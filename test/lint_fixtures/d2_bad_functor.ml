(* D2: a Hashtbl.Make instance iterates in bucket order too. *)
module T = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

let keys t = T.fold (fun k () acc -> k :: acc) t []
