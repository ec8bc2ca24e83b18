(* Typed D2: the instance hides behind an include, so no name gives it
   away; its fold is still the one Hashtbl declares. *)
module Ids = struct
  include Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k
  end)
end

let keys t = Ids.fold (fun k () acc -> k :: acc) t []
