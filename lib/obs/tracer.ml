type event = { name : string; track : int; ts : int; data : kind }

and kind = Span of { dur : int } | Instant | Sample of { value : int }

type open_span = { span_name : string; begin_ts : int }

type t = {
  mutable events : event list; (* reversed *)
  mutable offset : int;
  mutable open_count : int;
  stacks : (int, open_span list) Hashtbl.t;
  mutable clocks : string list; (* claimed time bases, first-claimed first *)
}

let control_track = -1

let create () =
  {
    events = [];
    offset = 0;
    open_count = 0;
    stacks = Hashtbl.create 8;
    clocks = [];
  }

let set_base t base = t.offset <- base

let base t = t.offset

let push t e = t.events <- e :: t.events

let begin_span t ~track ~name ~now =
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks track) in
  Hashtbl.replace t.stacks track ({ span_name = name; begin_ts = t.offset + now } :: stack);
  t.open_count <- t.open_count + 1

let end_span t ~track ~now =
  match Hashtbl.find_opt t.stacks track with
  | None | Some [] ->
    invalid_arg (Printf.sprintf "Tracer.end_span: no open span on track %d" track)
  | Some (top :: rest) ->
    let ts_end = t.offset + now in
    if ts_end < top.begin_ts then
      invalid_arg
        (Printf.sprintf "Tracer.end_span: span %s ends at %d before its start %d"
           top.span_name ts_end top.begin_ts);
    Hashtbl.replace t.stacks track rest;
    t.open_count <- t.open_count - 1;
    push t
      { name = top.span_name; track; ts = top.begin_ts; data = Span { dur = ts_end - top.begin_ts } }

let instant t ~track ~name ~now = push t { name; track; ts = t.offset + now; data = Instant }

let sample t ~track ~name ~now ~value =
  push t { name; track; ts = t.offset + now; data = Sample { value } }

let claim_clock t name =
  if not (List.mem name t.clocks) then t.clocks <- t.clocks @ [ name ]

let check t =
  if t.open_count <> 0 then
    Error (Printf.sprintf "Tracer: %d span(s) still open at export" t.open_count)
  else
    match t.clocks with
    | [] | [ _ ] -> Ok ()
    | cs ->
      Error
        (Printf.sprintf "Tracer: events from %d clocks mixed on one timeline (%s)"
           (List.length cs) (String.concat ", " cs))

let events t = List.rev t.events

(* -------------------------------------------------------------------- *)
(* Flamegraph-style aggregation.                                        *)

type agg = { agg_name : string; count : int; total : int; self : int }

(* An ancestor still open during the sweep below. *)
type frame = { f_end : int; f_dur : int; f_name : string; mutable kids : int }

let aggregate t =
  (* Spans grouped per track; nesting is then reconstructed by a sweep.
     Sorted by (start asc, end desc, recording index desc), a span's
     parent is the nearest earlier entry whose interval contains it.
     Recording order alone is not enough — [set_base] phase layouts
     restart [now] mid-track — but spans on one track nest properly, so
     the sort places every parent directly before its descendants; for
     identical intervals the later-recorded span is the outer one
     (parents complete after their children), hence the index
     tie-break. *)
  let by_track : (int, (int * int * int * string) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun idx e ->
      match e.data with
      | Span { dur } ->
        let l =
          match Hashtbl.find_opt by_track e.track with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace by_track e.track l;
            l
        in
        l := (e.ts, e.ts + dur, idx, e.name) :: !l
      | Instant | Sample _ -> ())
    (events t);
  let totals : (string, int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let cell name =
    match Hashtbl.find_opt totals name with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0, ref 0) in
      Hashtbl.replace totals name c;
      c
  in
  let close f =
    let _, _, self = cell f.f_name in
    self := !self + f.f_dur - f.kids
  in
  let sweep spans =
    let a = Array.of_list spans in
    Array.sort
      (fun (s1, e1, i1, _) (s2, e2, i2, _) ->
        if s1 <> s2 then Int.compare s1 s2
        else if e1 <> e2 then Int.compare e2 e1
        else Int.compare i2 i1)
      a;
    let stack = ref [] in
    Array.iter
      (fun (s, e_, _, name) ->
        while (match !stack with f :: _ -> f.f_end < e_ | [] -> false) do
          match !stack with
          | f :: rest ->
            stack := rest;
            close f
          | [] -> ()
        done;
        (match !stack with f :: _ -> f.kids <- f.kids + (e_ - s) | [] -> ());
        let cnt, tot, _ = cell name in
        incr cnt;
        tot := !tot + (e_ - s);
        stack := { f_end = e_; f_dur = e_ - s; f_name = name; kids = 0 } :: !stack)
      a;
    List.iter close !stack
  in
  (* Tracks are independent and the cells accumulate commutatively. *)
  (* xlint: order-independent *)
  Hashtbl.iter (fun _ spans -> sweep !spans) by_track;
  List.sort
    (fun a b -> String.compare a.agg_name b.agg_name)
    (Hashtbl.fold
       (fun name (cnt, tot, self) acc ->
         { agg_name = name; count = !cnt; total = !tot; self = !self } :: acc)
       totals [])
