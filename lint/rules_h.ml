(* H-rules: allocation hygiene on hot paths.

   Modules (or single top-level bindings) annotated [(* xlint: hot *)]
   opt into per-iteration allocation checks: the Netsim delivery loop,
   [Traversal]'s BFS cores, [Event_queue] and the [Graph] slot sort
   must stay flat so the PR-7 de-allocation work cannot
   silently regress (and a planned Msg arena keeps a tripwire).

   "Per iteration" means inside the body of a [for]/[while] loop, or
   inside a closure passed directly to a known iteration combinator
   (List.iter, Array.fold_left, Hashtbl.iter, Int_table.fold, ...),
   transitively. The rules are tripwires, not escape analyses: a
   flagged site is an allocation the compiler will perform on every
   iteration; hoist it, restructure, or annotate the line with a
   justification ([(* xlint: disable=H1 *)]).

   H1  closure allocation in a loop body (hoist the closure, or use a
       recursive helper defined outside the loop)
   H2  tuple / constructor-with-payload / record / array-literal /
       [ref] / [lazy] allocation in a loop body
   H3  list-building combinator (List.map family, [@], Array.map,
       Array.make, ...) in a loop body
   H4  (typed) partial application in a loop body — each one allocates
       a closure capturing the supplied prefix *)

open Rule

(* ------------------------------------------------------------------ *)
(* Hot regions.                                                       *)

(* Pair each (* xlint: hot *) marker with a top-level item: the item
   whose span contains the marker line, else the first item starting
   below it. A marker above the first item marks the whole file. *)
let regions_of ~item_spans hot_lines =
  match hot_lines with
  | [] -> []
  | _ ->
    let first_start =
      List.fold_left (fun acc (s, _) -> min acc s) max_int item_spans
    in
    List.filter_map
      (fun m ->
        if m < first_start then Some (1, max_int)
        else
          match List.find_opt (fun (s, e) -> s <= m && m <= e) item_spans with
          | Some r -> Some r
          | None ->
            List.fold_left
              (fun acc (s, e) ->
                if s > m then
                  match acc with
                  | Some (s', _) when s' <= s -> acc
                  | _ -> Some (s, e)
                else acc)
              None item_spans)
      hot_lines

let in_regions regions line = List.exists (fun (s, e) -> s <= line && line <= e) regions

let pstr_item_spans str =
  List.map
    (fun it ->
      ( it.Parsetree.pstr_loc.Location.loc_start.Lexing.pos_lnum,
        it.Parsetree.pstr_loc.Location.loc_end.Lexing.pos_lnum ))
    str

let tstr_item_spans str =
  List.map
    (fun it ->
      ( it.Typedtree.str_loc.Location.loc_start.Lexing.pos_lnum,
        it.Typedtree.str_loc.Location.loc_end.Lexing.pos_lnum ))
    str.Typedtree.str_items

(* ------------------------------------------------------------------ *)
(* Iteration combinators whose functional argument runs per element.  *)

let iterator_paths =
  [
    [ "List"; "iter" ]; [ "List"; "iteri" ]; [ "List"; "iter2" ];
    [ "List"; "map" ]; [ "List"; "mapi" ]; [ "List"; "concat_map" ];
    [ "List"; "filter" ]; [ "List"; "filter_map" ]; [ "List"; "partition" ];
    [ "List"; "fold_left" ]; [ "List"; "fold_right" ];
    [ "List"; "for_all" ]; [ "List"; "exists" ]; [ "List"; "init" ];
    [ "Array"; "iter" ]; [ "Array"; "iteri" ]; [ "Array"; "map" ];
    [ "Array"; "mapi" ]; [ "Array"; "fold_left" ]; [ "Array"; "fold_right" ];
    [ "Array"; "init" ];
    [ "Seq"; "iter" ]; [ "Seq"; "map" ]; [ "Seq"; "fold_left" ];
  ]

(* The hash tables' [iter]/[fold] ({!Rule.is_table_iter}) run their
   closure per binding too. *)
let is_iterator path = List.mem path iterator_paths || is_table_iter path

(* List-building combinators that allocate a fresh spine per call. *)
let alloc_combinators =
  [
    [ "List"; "map" ]; [ "List"; "mapi" ]; [ "List"; "map2" ];
    [ "List"; "append" ]; [ "List"; "concat" ]; [ "List"; "concat_map" ];
    [ "List"; "filter" ]; [ "List"; "filter_map" ]; [ "List"; "partition" ];
    [ "List"; "init" ]; [ "List"; "rev" ]; [ "List"; "rev_append" ];
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "List"; "of_seq" ]; [ "List"; "split" ];
    [ "List"; "combine" ]; [ "@" ];
    [ "Array"; "map" ]; [ "Array"; "mapi" ]; [ "Array"; "append" ];
    [ "Array"; "concat" ]; [ "Array"; "make" ]; [ "Array"; "init" ];
    [ "Array"; "copy" ]; [ "Array"; "sub" ]; [ "Array"; "to_list" ];
    [ "Array"; "of_list" ];
  ]

(* ------------------------------------------------------------------ *)
(* Per-iteration depth on the Parsetree.                              *)

let is_iterator_apply e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some path -> is_iterator path
    | None -> false)
  | _ -> false

let is_fun e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
  | _ -> false

(* Number of per-iteration boundaries crossed between the outermost
   ancestor and [e]: a while/for body, or the body of a closure passed
   directly to an iteration combinator. [chain] is outermost-first and
   ends with [e]. *)
let loop_depth chain =
  let arr = Array.of_list chain in
  let n = Array.length arr in
  let depth = ref 0 in
  for i = 0 to n - 2 do
    let parent = arr.(i) and child = arr.(i + 1) in
    (match parent.Parsetree.pexp_desc with
    | Parsetree.Pexp_while (_, body) when body == child -> incr depth
    | Parsetree.Pexp_for (_, _, _, _, body) when body == child -> incr depth
    | Parsetree.Pexp_fun (_, _, _, body) when body == child && i > 0 ->
      (* The closure's body runs per element when the closure is a
         direct argument of an iteration combinator. *)
      let grand = arr.(i - 1) in
      (match grand.Parsetree.pexp_desc with
      | Parsetree.Pexp_apply (_, args)
        when is_iterator_apply grand && List.exists (fun (_, a) -> a == parent) args ->
        incr depth
      | _ -> ())
    | Parsetree.Pexp_function cases
      when List.exists (fun c -> c.Parsetree.pc_rhs == child) cases && i > 0 -> (
      let grand = arr.(i - 1) in
      match grand.Parsetree.pexp_desc with
      | Parsetree.Pexp_apply (_, args)
        when is_iterator_apply grand && List.exists (fun (_, a) -> a == parent) args ->
        incr depth
      | _ -> ())
    | _ -> ())
  done;
  !depth

let depth_of ~ancestors e = loop_depth (List.rev (e :: ancestors))

(* ------------------------------------------------------------------ *)
(* The three syntactic H-rules share one walk.                        *)

let h_applies = everywhere

let hot_classifier flag_of ctx str =
  let regions = regions_of ~item_spans:(pstr_item_spans str) ctx.hot_lines in
  if regions = [] then []
  else
    let acc = ref [] in
    iter_exprs str (fun ~ancestors e ->
        let line = e.Parsetree.pexp_loc.Location.loc_start.Lexing.pos_lnum in
        if in_regions regions line then
          match flag_of ~ancestors e with
          | Some (id, msg) -> acc := finding ~ctx ~id e.Parsetree.pexp_loc msg :: !acc
          | None -> ());
    List.rev !acc

let h1_flag ~ancestors e =
  if is_fun e && depth_of ~ancestors e >= 1 then
    Some
      ( "H1",
        "closure allocated on every iteration of a hot loop; hoist it before the \
         loop or use a recursive helper" )
  else None

let h2_flag ~ancestors e =
  let hit what =
    Some
      ( "H2",
        Printf.sprintf
          "%s allocated on every iteration of a hot loop; hoist it, reuse scratch \
           state, or restructure" what )
  in
  (* A multi-argument constructor parses as the constructor applied to
     a sugar tuple ([a :: b] is [(::) (a, b)]); that tuple is part of
     the construct allocation, not a second one. *)
  let construct_arg_tuple () =
    match (e.Parsetree.pexp_desc, ancestors) with
    | Parsetree.Pexp_tuple _, { Parsetree.pexp_desc = Parsetree.Pexp_construct (_, Some arg); _ } :: _ ->
      arg == e
    | _ -> false
  in
  if depth_of ~ancestors e < 1 then None
  else
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_tuple _ when construct_arg_tuple () -> None
    | Parsetree.Pexp_tuple _ -> hit "tuple"
    | Parsetree.Pexp_record _ -> hit "record"
    | Parsetree.Pexp_array _ -> hit "array literal"
    | Parsetree.Pexp_lazy _ -> hit "lazy block"
    | Parsetree.Pexp_construct ({ txt; _ }, Some _) -> (
      match Longident.flatten txt with
      | l -> (
        match List.rev l with
        | last :: _ -> hit (Printf.sprintf "constructor %s payload" last)
        | [] -> None)
      | exception _ -> hit "constructor payload")
    | Parsetree.Pexp_apply (fn, _) when ident_path fn = Some [ "ref" ] -> hit "ref cell"
    | _ -> None

let h3_flag ~ancestors e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) when depth_of ~ancestors e >= 1 -> (
    match ident_path fn with
    | Some path when List.mem path alloc_combinators ->
      Some
        ( "H3",
          Printf.sprintf
            "%s builds a fresh structure on every iteration of a hot loop; hoist it \
             or iterate in place"
            (String.concat "." path) )
    | _ -> None)
  | _ -> None

let h_rule ~id ~doc ~explain flag =
  {
    id;
    severity = Finding.Warning;
    doc;
    explain;
    applies = h_applies;
    check = Syntactic (hot_classifier flag);
  }

let h1 =
  h_rule ~id:"H1" ~doc:"closure allocation per iteration in a hot loop"
    ~explain:
      "Inside a (* xlint: hot *) region, a fun/function expression inside a \
       for/while body (or inside a closure an iteration combinator runs per \
       element) is allocated on every iteration. Hoist the closure into a \
       let-binding before the loop — its captures are loop-invariant or it \
       could not be hoisted, in which case pass the varying part as an \
       argument to a recursive helper instead. The Netsim delivery loop's \
       per-round delivery and node-step closures were exactly this shape \
       before being hoisted."
    h1_flag

let h2 =
  h_rule ~id:"H2" ~doc:"tuple/option/record/ref allocation per iteration in a hot loop"
    ~explain:
      "Inside a (* xlint: hot *) region, building a tuple, a constructor with a \
       payload (Some, ::, a Msg), a record, an array literal, a ref or a lazy \
       block inside a loop allocates on every iteration and churns the minor \
       heap at million-event scale. Reuse scratch state (pre-sized arrays, \
       mutable cursors) as Traversal.slot_bfs does, or move the allocation out \
       of the loop. Boxed floats hide in the same shapes: a float stored in a \
       tuple/option/polymorphic container is boxed at that point."
    h2_flag

let h3 =
  h_rule ~id:"H3" ~doc:"List.map-family call per iteration in a hot loop"
    ~explain:
      "Inside a (* xlint: hot *) region, the list/array building combinators \
       (List.map, filter, append, @, Array.make, ...) allocate a fresh spine \
       per call; calling one inside a loop multiplies that by the iteration \
       count. Iterate in place (List.iter, explicit indices) or hoist the \
       construction out of the loop."
    h3_flag

(* ------------------------------------------------------------------ *)
(* H4: partial application in a hot loop (typed only — needs the      *)
(* result type to tell a partial application from a full one).        *)

let t_is_iterator_apply e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (fn, _) -> (
    match tident_path fn with
    | Some path -> is_iterator path
    | None -> false)
  | _ -> false

let t_loop_depth chain =
  let arr = Array.of_list chain in
  let n = Array.length arr in
  let depth = ref 0 in
  for i = 0 to n - 2 do
    let parent = arr.(i) and child = arr.(i + 1) in
    (match parent.Typedtree.exp_desc with
    | Typedtree.Texp_while (_, body) when body == child -> incr depth
    | Typedtree.Texp_for (_, _, _, _, _, body) when body == child -> incr depth
    | Typedtree.Texp_function { cases; _ }
      when List.exists (fun c -> c.Typedtree.c_rhs == child) cases && i > 0 -> (
      let grand = arr.(i - 1) in
      match grand.Typedtree.exp_desc with
      | Typedtree.Texp_apply (_, args)
        when t_is_iterator_apply grand
             && List.exists (fun (_, a) -> match a with Some a -> a == parent | None -> false) args ->
        incr depth
      | _ -> ())
    | _ -> ())
  done;
  !depth

let t_depth_of ~ancestors e = t_loop_depth (List.rev (e :: ancestors))

let is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> (
    match Types.get_desc t with Types.Tarrow _ -> true | _ -> false)
  | _ -> false

let h4_typed ctx str =
  let regions = regions_of ~item_spans:(tstr_item_spans str) ctx.hot_lines in
  if regions = [] then []
  else
    let acc = ref [] in
    iter_texprs str (fun ~ancestors e ->
        let line = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum in
        if in_regions regions line then
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply _ when is_arrow e.Typedtree.exp_type ->
            (* Skip applies that are immediately applied further. *)
            let applied_further =
              match ancestors with
              | outer :: _ -> (
                match outer.Typedtree.exp_desc with
                | Typedtree.Texp_apply (fn, _) -> fn == e
                | _ -> false)
              | [] -> false
            in
            if (not applied_further) && t_depth_of ~ancestors e >= 1 then
              acc :=
                finding ~ctx ~id:"H4" e.Typedtree.exp_loc
                  "partial application in a hot loop allocates a closure capturing \
                   the supplied prefix on every iteration; apply fully or hoist"
                :: !acc
          | _ -> ());
    List.rev !acc

let h4 =
  {
    id = "H4";
    severity = Finding.Warning;
    doc = "partial application per iteration in a hot loop (typed)";
    explain =
      "Inside a (* xlint: hot *) region, an application whose result is itself \
       a function (a partial application) allocates a closure capturing the \
       supplied arguments — on every iteration when it sits in a loop. Apply \
       the function fully, or hoist the partial application before the loop. \
       This rule needs the typed tree (the result type tells a partial \
       application from a full one) and has no syntactic fallback.";
    applies = h_applies;
    check = Typed { run = h4_typed; fallback = None };
  }
