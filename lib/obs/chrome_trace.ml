(* Track ids are shifted by one for export (control track -1 becomes
   tid 0, node u becomes tid u+1): some trace viewers reject negative
   thread ids. *)
let tid track = track + 1

let common ~name ~ph ~ts ~track rest =
  Jsonw.Obj
    ([
       ("name", Jsonw.String name);
       ("cat", Jsonw.String "xheal");
       ("ph", Jsonw.String ph);
       ("ts", Jsonw.Int ts);
       ("pid", Jsonw.Int 0);
       ("tid", Jsonw.Int (tid track));
     ]
    @ rest)

let event_json (e : Tracer.event) =
  match e.Tracer.data with
  | Tracer.Span { dur } ->
    common ~name:e.Tracer.name ~ph:"X" ~ts:e.Tracer.ts ~track:e.Tracer.track
      [ ("dur", Jsonw.Int dur) ]
  | Tracer.Instant ->
    common ~name:e.Tracer.name ~ph:"i" ~ts:e.Tracer.ts ~track:e.Tracer.track
      [ ("s", Jsonw.String "t") ]
  | Tracer.Sample { value } ->
    common ~name:e.Tracer.name ~ph:"C" ~ts:e.Tracer.ts ~track:e.Tracer.track
      [ ("args", Jsonw.Obj [ ("value", Jsonw.Int value) ]) ]

let to_json t =
  Jsonw.Obj
    [
      ("traceEvents", Jsonw.List (List.map event_json (Tracer.events t)));
      ("displayTimeUnit", Jsonw.String "ms");
    ]

let to_string t = Jsonw.to_string (to_json t)

(* [close_out] on the success path, so a flush that fails (a full
   disk) raises; [close_out_noerr] only releases the channel after a
   write that already raised. *)
let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string t);
      close_out oc)
