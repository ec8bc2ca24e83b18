type t = Sync | Async of { seed : int; fairness : int }

let sync = Sync

let async ~seed ~fairness =
  if fairness < 1 then invalid_arg "Schedule.async: fairness must be >= 1";
  Async { seed; fairness }

let is_sync = function Sync -> true | Async _ -> false

let fairness = function Sync -> 1 | Async { fairness; _ } -> fairness

let reseed t k =
  match t with
  | Sync -> Sync
  | Async a -> Async { a with seed = a.seed + (k * 1_000_003) }

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

let delay t ~src ~dst ~k =
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
