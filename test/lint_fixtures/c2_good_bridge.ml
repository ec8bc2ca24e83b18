(* C2: measured pricing is the sanctioned bridge between the clocks —
   add_measured is deliberately exempt. *) module Cost = struct type measured = { m_rounds : int; m_messages : int } let add_measured (a : measured) (_ : measured) = a end
let handler ~now acc stats =
  Cost.add_measured acc { stats with Cost.m_rounds = now }
