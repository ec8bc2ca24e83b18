type counter = { mutable count : int }

type gauge = { mutable value : int }

type histogram = {
  bounds : int array; (* strictly increasing inclusive upper bounds *)
  buckets : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable hcount : int;
  mutable sum : int;
  mutable minv : int;
  mutable maxv : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create t name make =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace t.table name m;
    m

let wrong_kind name got want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, requested as a %s" name (kind_name got) want)

let counter t name =
  match find_or_create t name (fun () -> Counter { count = 0 }) with
  | Counter c -> c
  | m -> wrong_kind name m "counter"

let incr c = c.count <- c.count + 1

let incr_by c n =
  if n < 0 then invalid_arg "Metrics.incr_by: negative increment";
  c.count <- c.count + n

let gauge t name =
  match find_or_create t name (fun () -> Gauge { value = 0 }) with
  | Gauge g -> g
  | m -> wrong_kind name m "gauge"

let gauge_max g v = if v > g.value then g.value <- v

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    bounds

let histogram t name ~buckets =
  check_bounds buckets;
  match
    find_or_create t name (fun () ->
        Histogram
          {
            bounds = Array.copy buckets;
            buckets = Array.make (Array.length buckets + 1) 0;
            hcount = 0;
            sum = 0;
            minv = max_int;
            maxv = min_int;
          })
  with
  | Histogram h ->
    if h.bounds <> buckets then
      invalid_arg (Printf.sprintf "Metrics: histogram %s re-acquired with different bounds" name);
    h
  | m -> wrong_kind name m "histogram"

let bucket_index bounds v =
  (* First bound >= v; linear scan — bucket arrays are small and fixed. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_index h.bounds v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.sum <- h.sum + v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_mean : float;
}

let summary h =
  if h.hcount = 0 then { s_count = 0; s_sum = 0; s_min = 0; s_max = 0; s_mean = 0.0 }
  else
    {
      s_count = h.hcount;
      s_sum = h.sum;
      s_min = h.minv;
      s_max = h.maxv;
      s_mean = float_of_int h.sum /. float_of_int h.hcount;
    }

let summary_json s =
  Jsonw.Obj
    [
      ("count", Jsonw.Int s.s_count);
      ("sum", Jsonw.Int s.s_sum);
      ("min", Jsonw.Int s.s_min);
      ("max", Jsonw.Int s.s_max);
      ("mean", Jsonw.Float s.s_mean);
    ]

let histogram_buckets h =
  List.init
    (Array.length h.buckets)
    (fun i ->
      let bound = if i < Array.length h.bounds then Some h.bounds.(i) else None in
      (bound, h.buckets.(i)))

(* ------------------------------------------------------------------ *)
(* Enumeration: always via a sort, never in hash order.                *)

let sorted_metrics t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.table [])

let counters t =
  List.filter_map
    (function name, Counter c -> Some (name, c.count) | _ -> None)
    (sorted_metrics t)

let summaries t =
  List.filter_map
    (function name, Histogram h -> Some (name, summary h) | _ -> None)
    (sorted_metrics t)

let metric_json = function
  | Counter c -> Jsonw.Obj [ ("type", Jsonw.String "counter"); ("value", Jsonw.Int c.count) ]
  | Gauge g -> Jsonw.Obj [ ("type", Jsonw.String "gauge"); ("value", Jsonw.Int g.value) ]
  | Histogram h ->
    let buckets =
      List.map
        (fun (bound, count) ->
          let le = match bound with Some b -> Jsonw.Int b | None -> Jsonw.String "+inf" in
          Jsonw.Obj [ ("le", le); ("count", Jsonw.Int count) ])
        (histogram_buckets h)
    in
    Jsonw.Obj
      ([
         ("type", Jsonw.String "histogram");
         ("count", Jsonw.Int h.hcount);
         ("sum", Jsonw.Int h.sum);
       ]
      @ (if h.hcount > 0 then
           [ ("min", Jsonw.Int h.minv); ("max", Jsonw.Int h.maxv) ]
         else [])
      @ [ ("buckets", Jsonw.List buckets) ])

let to_json t =
  Jsonw.Obj (List.map (fun (name, m) -> (name, metric_json m)) (sorted_metrics t))
