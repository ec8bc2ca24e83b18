(* D2, D4 and D5: the determinism rules that read the typed tree (a
   Tast walk over the trees [Typedload] loads). None has a syntactic
   stand-in; a file [Driver] cannot type is reported as E1.

   - D2 flags a hash-table [iter]/[fold] whose result may escape in
     bucket order. A sort exempts it only when the sort consumes the
     fold's result (the fold sits inside the sort's data argument), and
     any [Hashtbl.Make] instance is known by where its [iter]/[fold] is
     declared.
   - D4 sees the instantiation type: [compare] at [int] passes, and [=]
     on tuple-typed variables is caught. Comparisons against constant
     constructors ([x = None], [xs <> []]) stay legal — they are tag
     checks.
   - D5 flags [ignore e] whenever [e : (_, _) result], whatever the
     callee is called. *)

open Rule

(* ------------------------------------------------------------------ *)
(* Type classification.                                               *)

(* Atomic types: polymorphic compare at these is deterministic and
   layout-independent. Containers of atoms inherit the property. *)
let rec safe_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
    match (Path.name p, args) with
    | ("int" | "bool" | "char" | "unit" | "string" | "float"), [] -> true
    | ("option" | "list" | "array" | "ref" | "Stdlib.ref"), [ a ] -> safe_ty a
    | _ -> false)
  | Types.Tpoly (t, _) -> safe_ty t
  | _ -> false

let rec ty_to_string ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.name p
  | Types.Tconstr (p, args, _) ->
    Printf.sprintf "(%s) %s" (String.concat ", " (List.map ty_to_string args)) (Path.name p)
  | Types.Ttuple ts -> String.concat " * " (List.map ty_to_string ts)
  | Types.Tvar _ -> "'a (still polymorphic here)"
  | Types.Tarrow _ -> "a function type"
  | Types.Tpoly (t, _) -> ty_to_string t
  | _ -> "an opaque type"

let arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> (
    match Types.get_desc t with Types.Tarrow (_, a, _, _) -> Some a | _ -> None)
  | _ -> None

let is_result_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    match Path.name p with
    | "result" | "Stdlib.result" | "Stdlib.Result.t" | "Result.t" -> true
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* D4: polymorphic compare in the protocol layers.                    *)

let d4_ops = [ "compare"; "="; "<>"; "<"; ">"; "<="; ">=" ]

let is_constant_construct e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_construct (_, _, []) -> true
  | _ -> false

let d4_typed ctx str =
  texpr_check
    (fun ~ancestors e ->
      match tident_path e with
      | Some [ op ] when List.mem op d4_ops -> (
        match arrow_arg e.Typedtree.exp_type with
        | None -> None
        | Some at ->
          if safe_ty at then None
          else
            (* Tag checks against a constant constructor ([x = None],
               [xs <> []], [state = Idle]) are deterministic. *)
            let tag_check =
              match ancestors with
              | outer :: _ -> (
                match outer.Typedtree.exp_desc with
                | Typedtree.Texp_apply (fn, args) when fn == e ->
                  List.exists
                    (fun (_, a) ->
                      match a with Some a -> is_constant_construct a | None -> false)
                    args
                | _ -> false)
              | [] -> false
            in
            if tag_check then None
            else
              Some
                ( "D4",
                  None,
                  Printf.sprintf
                    "polymorphic (%s) instantiated at %s; use a dedicated comparator \
                     (Int.compare, Edge.compare, ...)"
                    op (ty_to_string at) ))
      | _ -> None)
    ctx str

(* ------------------------------------------------------------------ *)
(* D5: ignoring a Result.                                             *)

let d5_typed ctx str =
  texpr_check
    (fun ~ancestors:_ e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply (fn, [ (Asttypes.Nolabel, Some arg) ]) -> (
        match tident_path fn with
        | Some [ "ignore" ] when is_result_ty arg.Typedtree.exp_type ->
          Some
            ( "D5",
              Some e.Typedtree.exp_loc,
              "this expression is a Result; ignoring it swallows the Error case — \
               match on it" )
        | _ -> None)
      | _ -> None)
    ctx str

(* ------------------------------------------------------------------ *)
(* D2: hash-order escape.                                             *)

let sort_paths =
  [
    [ "List"; "sort" ];
    [ "List"; "sort_uniq" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
  ]

(* Operators whose repeated application is order-insensitive, so a fold
   reducing with one of them is safe even in hash order. *)
let commutative_ops =
  [ "+"; "+."; "*"; "*."; "land"; "lor"; "lxor"; "max"; "min"; "&&"; "||" ]

(* [loc_inside inner outer]: both locations in the same file, [inner]
   contained in [outer] (character positions). *)
let loc_inside inner outer =
  inner.Location.loc_start.Lexing.pos_cnum >= outer.Location.loc_start.Lexing.pos_cnum
  && inner.Location.loc_end.Lexing.pos_cnum <= outer.Location.loc_end.Lexing.pos_cnum

let rec tfun_body e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> tfun_body c.Typedtree.c_rhs
  | _ -> e

let t_is_commutative_reduction fn_arg =
  match (tfun_body fn_arg).Typedtree.exp_desc with
  | Typedtree.Texp_apply (op, _) -> (
    match tident_path op with
    | Some path -> (
      match List.rev path with
      | last :: _ -> List.mem last commutative_ops
      | [] -> false)
    | None -> false)
  | _ -> false

(* An enclosing sort exempts the fold only when the fold sits inside
   the sort's data argument — the value actually canonicalised. *)
let sort_consumes ~fold_loc ancestor =
  match ancestor.Typedtree.exp_desc with
  | Typedtree.Texp_apply (fn, args) -> (
    match tident_path fn with
    | Some path when List.mem path sort_paths -> (
      match List.rev (List.filter_map (fun (_, a) -> a) args) with
      | data :: _ -> loc_inside fold_loc data.Typedtree.exp_loc
      | [] -> false)
    | _ -> false)
  | _ -> false

(* A hash-table [iter]/[fold]: one of {!Rule.table_modules}, or any
   that [Hashtbl] itself declares, as it declares every [Hashtbl.Make]
   instance's. *)
let t_is_table_iter e =
  match (e.Typedtree.exp_desc, tident_path e) with
  | Typedtree.Texp_ident (_, _, vd), Some path -> (
    is_table_iter path
    ||
    match List.rev path with
    | ("iter" | "fold") :: _ ->
      Filename.basename vd.Types.val_loc.Location.loc_start.Lexing.pos_fname = "hashtbl.mli"
    | _ -> false)
  | _ -> false

let d2_typed ctx str =
  texpr_check
    (fun ~ancestors e ->
      if not (t_is_table_iter e) then None
      else
        let loc = e.Typedtree.exp_loc in
        let sorted_above = List.exists (sort_consumes ~fold_loc:loc) ancestors in
        let commutative =
          match ancestors with
          | outer :: _ -> (
            match outer.Typedtree.exp_desc with
            | Typedtree.Texp_apply (fn, (_, Some first) :: _) when fn == e ->
              t_is_commutative_reduction first
            | _ -> false)
          | [] -> false
        in
        if sorted_above || commutative then None
        else
          let span =
            match ancestors with
            | outer :: _ when (match outer.Typedtree.exp_desc with
                              | Typedtree.Texp_apply (fn, _) -> fn == e
                              | _ -> false) ->
              Some outer.Typedtree.exp_loc
            | _ -> None
          in
          Some
            ( "D2",
              span,
              "hash-table iteration order is unspecified; canonicalise the escaping \
               result (List.sort) or annotate the site (* xlint: order-independent *)"
            ))
    ctx str

(* ------------------------------------------------------------------ *)
(* The rules.                                                         *)

let d2 =
  {
    id = "D2";
    severity = Finding.Error;
    doc =
      "hash-table iter/fold result may escape in hash order (sort it, or annotate \
       (* xlint: order-independent *))";
    explain =
      "Hashtbl bucket order is an accident of insertion history and hashing, so \
       any value that escapes a Hashtbl.iter/Hashtbl.fold unsorted desynchronises \
       seeded replays (this caught real bugs in adversary/strategy.ml, \
       graph/generators.ml, bfs_echo.ml, xheal.ml and routing/congestion.ml). The \
       same holds for every Hashtbl.Make instance: Int_table, Edge.Table, or a \
       module the file builds itself. Canonicalise the escaping result with \
       List.sort, reduce with a commutative operator (+, max, ...), or annotate \
       the site (* xlint: order-independent *). With a typed tree the rule \
       checks that the sort actually consumes the fold's result and knows any \
       instance by where its iter/fold is declared.";
    applies = everywhere;
    check = Typed d2_typed;
  }

let d4 =
  {
    id = "D4";
    severity = Finding.Error;
    doc =
      "polymorphic compare in lib/core//lib/distributed (use Int.compare, \
       Edge.compare, or a dedicated comparator)";
    explain =
      "Polymorphic compare orders values by memory layout: on tuples and records \
       the ordering is an accident of field order, and on abstract types (graphs, \
       tables, clouds) it is simply wrong. The protocol layers (lib/core/, \
       lib/distributed/) must use dedicated comparators — Int.compare, \
       Edge.compare, String.compare — so orderings are explicit and stable. With \
       a typed tree the rule flags compare/(=)/(<>)/(<) only at non-atomic \
       instantiation types (atoms: int, bool, char, unit, string, float, and \
       option/list/array/ref thereof) and exempts comparisons against constant \
       constructors (x = None, xs <> []).";
    applies = in_dirs [ "lib/core/"; "lib/distributed/" ];
    check = Typed d4_typed;
  }

let d5 =
  {
    id = "D5";
    severity = Finding.Error;
    doc = "ignore of a Result-typed expression (match on it instead)";
    explain =
      "An ignored Result silently swallows its Error case — usually a broken \
       invariant check (Graph.check_invariants, Registry.check, ...). Match on \
       the result instead, or handle the Error explicitly. With a typed tree any \
       [ignore e] where [e : (_, _) result] is flagged, regardless of the \
       callee's name.";
    applies = everywhere;
    check = Typed d5_typed;
  }
