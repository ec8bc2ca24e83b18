type t =
  | Sync
  | Async of { seed : int; fairness : int }
  | Adaptive of { seed : int; fairness : int }

let sync = Sync

let async ~seed ~fairness =
  if fairness < 1 then invalid_arg "Schedule.async: fairness must be >= 1";
  Async { seed; fairness }

let adaptive ~seed ~fairness =
  if fairness < 1 then invalid_arg "Schedule.adaptive: fairness must be >= 1";
  Adaptive { seed; fairness }

let is_sync = function Sync -> true | Async _ | Adaptive _ -> false

let fairness = function Sync -> 1 | Async { fairness; _ } | Adaptive { fairness; _ } -> fairness

let reseed t k =
  match t with
  | Sync -> Sync
  | Async a -> Async { a with seed = a.seed + (k * 1_000_003) }
  | Adaptive a -> Adaptive { a with seed = a.seed + (k * 1_000_003) }

(* Integer avalanche (triple xor-shift-multiply, 32-bit constants so the
   arithmetic is identical on 32- and 64-bit hosts). Good enough to make
   per-message delays look adversarial while staying a pure function of
   the message identity. *)
let mix z =
  let z = z lxor (z lsr 16) in
  let z = z * 0x45d9f3b in
  let z = z lxor (z lsr 16) in
  let z = z * 0x45d9f3b in
  let z = z lxor (z lsr 16) in
  z land 0x3FFFFFFF

let delay_observed t ~src ~dst ~k ~traffic =
  match t with
  | Sync -> 1
  | Async { seed; fairness } ->
    (* u in [0,1) depends only on (seed, src, dst, k) — NOT on fairness —
       so for a fixed seed the delay of any given message is monotone
       non-decreasing in the fairness bound. That coupling is what lets
       the property tests assert that time-to-quiescence never shrinks
       when the adversary is given more slack. *)
    let h = mix (seed + mix ((src * 2_147_483_629) + mix ((dst * 65_537) + mix k))) in
    let u = float_of_int h /. 1_073_741_824.0 in
    1 + int_of_float (u *. float_of_int fairness)
  | Adaptive { seed; fairness } ->
    (* The online adversary: the avalanche hash additionally folds in the
       simulator's running traffic digest, so the delay of the k-th send
       on a link depends on everything delivered before it — and on
       nothing else. Still always within the fairness bound [1 .. F], so
       E13's conformance and fairness stories survive unchanged. *)
    let h =
      mix (seed + mix ((src * 2_147_483_629) + mix ((dst * 65_537) + mix (k + mix traffic))))
    in
    1 + (h mod fairness)

let delay t ~src ~dst ~k = delay_observed t ~src ~dst ~k ~traffic:0

(* One send folded into a running traffic digest — the "observation"
   the adaptive adversary keys on. Pure avalanche chaining, so the
   digest after any prefix of a run is a deterministic function of that
   prefix alone (and both Netsim engines, fed the same send sequence,
   agree on it bit-for-bit). *)
let observe digest ~src ~dst ~words =
  mix (digest + mix ((src * 2_147_483_629) + mix ((dst * 65_537) + mix words)))
