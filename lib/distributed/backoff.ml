type t =
  | Fixed of int
  | Exponential of { base : int; cap : int }
  | Decorrelated of { base : int; cap : int }

let fixed every =
  if every < 1 then invalid_arg "Backoff.fixed: interval must be >= 1";
  Fixed every

let default = fixed 3

let exponential ~base ~cap () =
  if base < 1 then invalid_arg "Backoff.exponential: base must be >= 1";
  if cap < base then invalid_arg "Backoff.exponential: cap must be >= base";
  Exponential { base; cap }

let decorrelated ~base ~cap () =
  if base < 1 then invalid_arg "Backoff.decorrelated: base must be >= 1";
  if cap < base then invalid_arg "Backoff.decorrelated: cap must be >= base";
  Decorrelated { base; cap }

(* Same avalanche as {!Schedule.mix}: jitter must be a pure function of
   (node, attempt) so retries replay deterministically. *)
let mix z =
  let z = z lxor (z lsr 16) in
  let z = z * 0x45d9f3b in
  let z = z lxor (z lsr 16) in
  let z = z * 0x45d9f3b in
  let z = z lxor (z lsr 16) in
  z land 0x3FFFFFFF

let interval t ~node ~attempt =
  let attempt = max 0 attempt in
  match t with
  | Fixed every -> every
  | Exponential { base; cap } ->
    (* base * 2^attempt, saturating at cap, plus deterministic jitter of
       up to half the raw interval (still capped) to desynchronise
       retries across nodes. *)
    let raw =
      if attempt >= 30 then cap else min cap (base * (1 lsl attempt))
    in
    let jitter =
      if raw <= 1 then 0
      else mix (mix ((node * 65_537) + attempt)) mod (1 + (raw / 2))
    in
    min cap (raw + jitter)
  | Decorrelated { base; cap } ->
    (* Decorrelated jitter, sleep_n = uniform(base, min cap (3*sleep_{n-1})),
       made deterministic by replacing the uniform draw with the avalanche
       hash of (node, step). Replaying the chain from [base] each
       call keeps the policy stateless; only a constant-length suffix of
       the chain is walked so the hot path stays O(1) in [attempt]. The
       result is still a pure function of (policy, node, attempt). *)
    let first = max 0 (attempt - 11) in
    let prev = ref base in
    for i = first to attempt do
      let hi = max (base + 1) (min cap (3 * !prev)) in
      let u = mix (mix ((node * 65_537) + i)) mod (hi - base + 1) in
      prev := base + u
    done;
    max 1 !prev

let max_interval = function
  | Fixed every -> every
  | Exponential { cap; _ } | Decorrelated { cap; _ } -> cap
