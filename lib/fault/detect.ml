type t = {
  seed : int;
  period : int;
  timeout : int;
  ladder : int;
  confirm : int;
  horizon : int;
}

let make ?(seed = 0) ?(period = 2) ?(timeout = 5) ?(ladder = 3) ?(confirm = 4)
    ?(horizon = 40) () =
  if period < 1 then invalid_arg "Detect.make: heartbeat period must be >= 1";
  if timeout < period then invalid_arg "Detect.make: timeout must cover one period";
  if ladder < 0 then invalid_arg "Detect.make: ladder must be >= 0";
  if confirm < 1 then invalid_arg "Detect.make: confirm must be >= 1";
  if horizon < period then invalid_arg "Detect.make: horizon leaves no room for a beat";
  { seed; period; timeout; ladder; confirm; horizon }

let latency_bound t ~fairness =
  if fairness < 1 then invalid_arg "Detect.latency_bound: fairness must be >= 1";
  (* Last pre-crash beat up to [period] units stale + in flight for up
     to [fairness] units, the fully-climbed timeout ladder, the confirm
     window, and one unit of stepping slack at each of the three state
     transitions. *)
  t.period + fairness + t.timeout + (3 * t.ladder) + t.confirm + 3

type outcome = {
  detected : bool;
  latency : int;
  suspicions : int;
  refutations : int;
  confirmations : int;
}

let no_outcome =
  { detected = false; latency = -1; suspicions = 0; refutations = 0; confirmations = 0 }
