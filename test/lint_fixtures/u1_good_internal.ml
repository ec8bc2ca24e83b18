(* U1: a value whose only user is its own unit is used: the unit's own
   typed tree counts, as it does for a lib/ module whose helper only
   its own functions call. *)
let step = 3

let () = ignore (List.init step Fun.id)
