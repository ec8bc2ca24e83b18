let quote s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

let attrs_to_string = function
  | [] -> ""
  | kvs ->
    let body = List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (quote v)) kvs in
    Printf.sprintf " [%s]" (String.concat ", " body)

let to_dot ?(name = "g") ?(node_attrs = fun _ -> []) ?(edge_attrs = fun _ -> []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter
    (fun u -> Buffer.add_string buf (Printf.sprintf "  %d%s;\n" u (attrs_to_string (node_attrs u))))
    (Graph.nodes g);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d%s;\n" (Edge.src e) (Edge.dst e)
           (attrs_to_string (edge_attrs e))))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ?name ?node_attrs ?edge_attrs path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_dot ?name ?node_attrs ?edge_attrs g);
      close_out oc)
