(* Typed upgrades of D2/D4/D5 (Tast walk over cmt-loaded or
   directly-typed trees, see [Typedload]).

   Each one drops an approximation documented in the PR-3 syntactic
   rule headers:

   - D4 sees the instantiation type: [compare] at [int] is no longer a
     false positive, and [=] on tuple-typed {e variables} (invisible to
     the literal-shape heuristic) is caught. Comparisons against
     constant constructors ([x = None], [xs <> []]) stay legal — they
     are tag checks.
   - D5 flags [ignore e] whenever [e : (_, _) result], whatever the
     callee is called — the check.../validate... name list is gone.
   - D2's sort exemption becomes flow-accurate: the enclosing sort must
     actually consume the fold's result (the fold must sit inside the
     sort's data argument), where the syntactic pass accepted any
     lexically enclosing sort. And it knows every [Hashtbl.Make]
     instance, where the syntactic pass knows them by name. *)

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
(* Typed D4.                                                          *)

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
(* Typed D5.                                                          *)

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
(* Typed D2.                                                          *)

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
(* Assembled rules: typed run + syntactic fallback.                   *)

let d2 =
  { Rules_d.d2 with check = Typed { run = d2_typed; fallback = syntactic_of Rules_d.d2 } }

let d4 =
  { Rules_d.d4 with check = Typed { run = d4_typed; fallback = syntactic_of Rules_d.d4 } }

let d5 =
  { Rules_d.d5 with check = Typed { run = d5_typed; fallback = syntactic_of Rules_d.d5 } }
