(* C2: virtual-time [now] must not flow into an engine-rounds charge. *) module Cost = struct let add_phase ~label:(_ : string) ~rounds:(_ : int) ~messages:(_ : int) = () end
let handler ~now ~inbox:_ =
  Cost.add_phase ~label:"probe" ~rounds:now ~messages:0;
  []
