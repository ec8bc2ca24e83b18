(* Calendar-ring event queue under every Netsim run: whole module hot —
   the H-rules keep push and drain down to the one cons cell a push
   needs. *)
(* xlint: hot *)

(* Bucket [time land mask] holds the events due at [time], newest push
   at the head. Every pending time lies in (now, now + span] and
   [span < Array.length buckets], so no bucket ever mixes two times. *)
type 'a t = {
  buckets : 'a list array;
  mask : int;
  span : int;
  mutable now : int;
  mutable len : int;
}

let create ~span =
  if span < 1 then invalid_arg "Event_queue.create: span must be >= 1";
  let rec size s = if s > span then s else size (2 * s) in
  let size = size 1 in
  { buckets = Array.make size []; mask = size - 1; span; now = 0; len = 0 }

let is_empty q = q.len = 0

let length q = q.len

let add q ~time x =
  if time <= q.now || time > q.now + q.span then
    invalid_arg "Event_queue.add: time outside (now, now + span]";
  let b = time land q.mask in
  q.buckets.(b) <- x :: q.buckets.(b);
  q.len <- q.len + 1

let pop_due q ~now =
  if now < q.now then invalid_arg "Event_queue.pop_due: time went backwards";
  if q.len > 0 then
    for time = q.now + 1 to min (now - 1) (q.now + q.span) do
      match q.buckets.(time land q.mask) with
      | [] -> ()
      | _ :: _ -> invalid_arg "Event_queue.pop_due: an earlier event is still pending"
    done;
  q.now <- now;
  let b = now land q.mask in
  let due = q.buckets.(b) in
  q.buckets.(b) <- [];
  q.len <- q.len - List.length due;
  due

let next_time q =
  let rec scan time =
    match q.buckets.(time land q.mask) with [] -> scan (time + 1) | _ :: _ -> time
  in
  if q.len = 0 then q.now + 1 else scan (q.now + 1)
