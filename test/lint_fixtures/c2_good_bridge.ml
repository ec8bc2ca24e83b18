(* C2: measured pricing is the sanctioned bridge between the clocks —
   add_measured is deliberately exempt. *)
let handler ~now acc stats =
  Cost.add_measured acc { stats with Cost.m_rounds = now }
