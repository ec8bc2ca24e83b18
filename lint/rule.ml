(* The rule framework shared by every family (see [Rules] for the
   assembled catalogue).

   A rule is either [Syntactic] (a Parsetree pass — always runnable)
   or [Typed] (a Tast pass over the typed tree from [Typedload], with
   an optional syntactic fallback for files whose types are
   unavailable). Each rule carries a severity, a one-line [doc] and a
   longer [explain] shown by [xlint --explain RULE]. *)

type ctx = {
  path : string; (* repo-relative path, e.g. "lib/graph/graph.ml" *)
  hot_lines : int list; (* (* xlint: hot *) marker lines, ascending *)
}

type check =
  | Syntactic of (ctx -> Parsetree.structure -> Finding.t list)
  | Typed of {
      run : ctx -> Typedtree.structure -> Finding.t list;
      fallback : (ctx -> Parsetree.structure -> Finding.t list) option;
    }

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;
  explain : string;
  applies : string -> bool;
  check : check;
}

(* [loc] is the flagged expression (start position reported); [span],
   when wider, extends the suppression range to the enclosing
   expression's last line so a trailing same-line pragma works. *)
let finding ~ctx ~id ?span loc message =
  let p = loc.Location.loc_start in
  let e = (Option.value ~default:loc span).Location.loc_end in
  {
    Finding.rule = id;
    file = ctx.path;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    end_line = max p.Lexing.pos_lnum e.Lexing.pos_lnum;
    message;
  }

(* The syntactic pass a rule can run without types: its check when it
   is syntactic, its declared fallback when typed. *)
let syntactic_of t =
  match t.check with Syntactic f -> Some f | Typed { fallback; _ } -> fallback

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let everywhere _ = true
let in_dirs dirs p = List.exists (fun d -> has_prefix ~prefix:d p) dirs

(* ------------------------------------------------------------------ *)
(* Parsetree helpers.                                                 *)

(* Longident of an identifier expression, as a string list with any
   leading [Stdlib.] stripped ([Stdlib.compare] and [compare] are the
   same hazard). *)
let ident_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
    match Longident.flatten txt with
    | "Stdlib" :: (_ :: _ as rest) -> Some rest
    | path -> Some path
    | exception _ -> None)
  | _ -> None

(* Walk every expression of a structure; [f] also receives the stack of
   enclosing expressions, innermost first. *)
let iter_exprs structure f =
  let stack = ref [] in
  let expr self e =
    f ~ancestors:!stack e;
    stack := e :: !stack;
    Ast_iterator.default_iterator.expr self e;
    stack := List.tl !stack
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure

(* Collect findings from a per-expression classifier. *)
let expr_check classify ctx str =
  let acc = ref [] in
  iter_exprs str (fun ~ancestors e ->
      match classify ~ancestors e with
      | Some (span, msg) -> acc := finding ~ctx ~id:"" ?span e.Parsetree.pexp_loc msg :: !acc
      | None -> ());
  List.rev !acc

let expr_rule ~id ~severity ~doc ~explain ~applies classify =
  let check ctx str =
    List.map (fun f -> { f with Finding.rule = id }) (expr_check classify ctx str)
  in
  { id; severity; doc; explain; applies; check = Syntactic check }

(* ------------------------------------------------------------------ *)
(* Typedtree helpers.                                                 *)

(* Path of a typed identifier, [Stdlib.] stripped, as a string list
   ("Stdlib.Hashtbl.fold" -> ["Hashtbl"; "fold"]). *)
let tident_path e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
    let name = Path.name p in
    let name =
      if has_prefix ~prefix:"Stdlib." name then
        String.sub name 7 (String.length name - 7)
      else name
    in
    match String.split_on_char '.' name with [] -> None | path -> Some path)
  | _ -> None

(* Walk every expression of a typed structure with the enclosing
   expression stack, innermost first. *)
let iter_texprs structure f =
  let stack = ref [] in
  let expr self e =
    f ~ancestors:!stack e;
    stack := e :: !stack;
    Tast_iterator.default_iterator.expr self e;
    stack := List.tl !stack
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it structure

let texpr_check classify ctx str =
  let acc = ref [] in
  iter_texprs str (fun ~ancestors e ->
      match classify ~ancestors e with
      | Some (id, span, msg) ->
        acc := finding ~ctx ~id ?span e.Typedtree.exp_loc msg :: !acc
      | None -> ());
  List.rev !acc

(* [loc_inside inner outer]: both locations in the same file, [inner]
   contained in [outer] (character positions). *)
let loc_inside inner outer =
  inner.Location.loc_start.Lexing.pos_cnum >= outer.Location.loc_start.Lexing.pos_cnum
  && inner.Location.loc_end.Lexing.pos_cnum <= outer.Location.loc_end.Lexing.pos_cnum

(* ------------------------------------------------------------------ *)
(* Shared vocabularies.                                               *)

let sort_paths =
  [
    [ "List"; "sort" ];
    [ "List"; "sort_uniq" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
  ]

(* Hash tables whose [iter]/[fold] visit in bucket order: [Hashtbl]
   and the [Hashtbl.Make] instances this repo names, [Int_table] and
   [Edge.Table]. D2's syntactic pass adds the modules a file binds to
   [Hashtbl.Make] itself, and its typed pass knows any other instance
   by where its [iter]/[fold] is declared. *)
let table_modules = [ "Hashtbl"; "Int_table"; "Table" ]

let is_table_iter ?(tables = table_modules) path =
  match List.rev path with
  | ("iter" | "fold") :: m :: _ -> List.mem m tables
  | _ -> false

(* Operators whose repeated application is order-insensitive, so a fold
   reducing with one of them is safe even in hash order. *)
let commutative_ops =
  [ "+"; "+."; "*"; "*."; "land"; "lor"; "lxor"; "max"; "min"; "&&"; "||" ]
