(* U1: two exports that nothing calls, each hidden from a weaker key. *)

(* The default of an optional argument is bound on its function's
   line, so a reference keyed by line alone would make [f] look used. *)
let f ?(x = 0) () = x

type r = { g : int }

(* A read of the field [g] is no use of the value [g], which a key by
   name would count. *)
let g = 1

let () = ignore { g = 2 }.g
