(* Determinism rules, syntactic variants (Parsetree, no typing).

   These are the PR-3 originals: every correctness claim in this repo —
   QCheck conformance of the event engine against
   [Netsim.run_reference], seeded-replay determinism, the experiment
   tables — assumes runs are bit-reproducible under a seed, and these
   rules mechanise the discipline. D2/D4/D5 have typed upgrades in
   [Rules_typed] that replace the name-matching approximations below
   whenever a typed tree is available; the syntactic forms remain as
   documented fallbacks (and as D1/D3, which need no types). *)

open Rule

(* ------------------------------------------------------------------ *)
(* D1: stateful global randomness.                                    *)
(*                                                                    *)
(* Any [Random.f] draws from (or reseeds) the process-global PRNG,    *)
(* which makes the draw order depend on unrelated code paths.  Only   *)
(* the [Random.State] API, threaded explicitly, is replayable.        *)

let d1 =
  expr_rule ~id:"D1" ~severity:Finding.Error
    ~doc:"global Random state (use an explicit Random.State.t)"
    ~explain:
      "Random.int, Random.float, Random.self_init and friends draw from the \
       process-global PRNG. The draw order then depends on every other code \
       path that also touches it, so a run cannot be replayed from its seed. \
       Thread an explicit Random.State.t instead (created once per run from \
       the seed), as every engine and protocol in this repo does."
    ~applies:everywhere
    (fun ~ancestors:_ e ->
      match ident_path e with
      | Some ("Random" :: rest) when rest <> [] -> (
        match rest with
        | "State" :: _ -> None
        | f :: _ ->
          Some
            ( None,
              Printf.sprintf
                "Random.%s uses the global PRNG; thread an explicit Random.State.t instead"
                f )
        | [] -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* D2: hash-order escape.                                             *)

let rec fun_body e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, body) -> fun_body body
  | _ -> e

let is_commutative_reduction fn_arg =
  match (fun_body fn_arg).Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (op, _) -> (
    match ident_path op with
    | Some path -> (
      match List.rev path with
      | last :: _ -> List.mem last commutative_ops
      | [] -> false)
    | None -> false)
  | _ -> false

let is_sort_apply e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some path -> List.mem path sort_paths
    | None -> false)
  | _ -> false

let d2_explain =
  "Hashtbl bucket order is an accident of insertion history and hashing, so \
   any value that escapes a Hashtbl.iter/Hashtbl.fold unsorted desynchronises \
   seeded replays (this caught real bugs in adversary/strategy.ml, \
   graph/generators.ml, bfs_echo.ml, xheal.ml and routing/congestion.ml). The \
   same holds for every Hashtbl.Make instance: Int_table, Edge.Table, or a \
   module the file builds itself. Canonicalise the escaping result with \
   List.sort, reduce with a commutative operator (+, max, ...), or annotate \
   the site (* xlint: order-independent *). With a typed tree the rule \
   checks that the sort actually consumes the fold's result and knows any \
   instance by where its iter/fold is declared; the syntactic fallback \
   accepts any lexically enclosing sort and knows the instances by name."

(* Modules a structure binds to a [Hashtbl.Make]/[MakeSeeded]
   application, at any depth. *)
let local_tables str =
  let acc = ref [] in
  let module_binding self mb =
    (match (mb.Parsetree.pmb_name.Location.txt, mb.Parsetree.pmb_expr.Parsetree.pmod_desc) with
    | Some name, Parsetree.Pmod_apply ({ Parsetree.pmod_desc = Parsetree.Pmod_ident f; _ }, _) -> (
      match Longident.flatten f.Location.txt with
      | [ "Hashtbl"; ("Make" | "MakeSeeded") ]
      | [ "Stdlib"; "Hashtbl"; ("Make" | "MakeSeeded") ] ->
        acc := name :: !acc
      | _ -> ()
      | exception _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.module_binding self mb
  in
  let it = { Ast_iterator.default_iterator with module_binding } in
  it.structure it str;
  !acc

(* The classifier is shared: the typed variant in [Rules_typed] redoes
   the sort exemption precisely; this syntactic one exempts any
   enclosing sort application (documented approximation: the sort might
   consume a different value). *)
let d2_classify ~tables ~ancestors e =
  match ident_path e with
  | Some path when is_table_iter ~tables path ->
    let sorted_above = List.exists is_sort_apply ancestors in
    let commutative =
      match ancestors with
      | outer :: _ -> (
        match outer.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (fn, (_, first) :: _) when fn == e ->
          is_commutative_reduction first
        | _ -> false)
      | [] -> false
    in
    if sorted_above || commutative then None
    else
      let span =
        match ancestors with
        | outer :: _ when (match outer.Parsetree.pexp_desc with
                          | Parsetree.Pexp_apply (fn, _) -> fn == e
                          | _ -> false) ->
          Some outer.Parsetree.pexp_loc
        | _ -> None
      in
      Some
        ( span,
          "hash-table iteration order is unspecified; canonicalise the escaping \
           result (List.sort) or annotate the site (* xlint: order-independent *)"
        )
  | _ -> None

let d2 =
  {
    id = "D2";
    severity = Finding.Error;
    doc =
      "hash-table iter/fold result may escape in hash order (sort it, or annotate \
       (* xlint: order-independent *))";
    explain = d2_explain;
    applies = everywhere;
    check =
      Syntactic
        (fun ctx str ->
          let tables = local_tables str @ table_modules in
          List.map
            (fun f -> { f with Finding.rule = "D2" })
            (expr_check (d2_classify ~tables) ctx str));
  }

(* ------------------------------------------------------------------ *)
(* D3: wall-clock and OS entropy inside lib/.                         *)
(*                                                                    *)
(* Handlers and library code must be functions of the virtual clock   *)
(* ([~now]) and the seeded RNG only.  Timing the process is fine in   *)
(* bin/ and bench/.                                                   *)

let wall_clock_paths =
  [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]

let d3 =
  expr_rule ~id:"D3" ~severity:Finding.Error
    ~doc:"wall-clock read in lib/ (use the virtual ~now)"
    ~explain:
      "Library code (everything under lib/) must be a function of the virtual \
       clock (~now) and the seeded RNG: a wall-clock read makes output depend \
       on the machine and the moment, killing byte-identical replay. Timing \
       the process is legitimate in bin/ and bench/, which this rule does not \
       cover."
    ~applies:(has_prefix ~prefix:"lib/")
    (fun ~ancestors:_ e ->
      match ident_path e with
      | Some path when List.mem path wall_clock_paths ->
        Some
          ( None,
            Printf.sprintf
              "%s reads the wall clock; lib/ code must use the virtual ~now / seeded RNG"
              (String.concat "." path) )
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* D4: polymorphic compare in the protocol layers (syntactic).        *)
(*                                                                    *)
(* Without types we flag the two syntactically certain shapes: a bare *)
(* [compare] value, and [=]/[<>] applied to a tuple, record, array or *)
(* list literal.  [x = None]/[Some _] option tests on atoms are       *)
(* deliberately not flagged.  The typed variant replaces both         *)
(* approximations: it sees the instantiation type, so [compare] at    *)
(* [int] passes and [=] on tuple-typed variables is caught.           *)

let is_structured e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_tuple _ | Parsetree.Pexp_record _ | Parsetree.Pexp_array _ ->
    true
  | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
  | _ -> false

let d4_dirs = [ "lib/core/"; "lib/distributed/" ]

let d4_explain =
  "Polymorphic compare orders values by memory layout: on tuples and records \
   the ordering is an accident of field order, and on abstract types (graphs, \
   tables, clouds) it is simply wrong. The protocol layers (lib/core/, \
   lib/distributed/) must use dedicated comparators — Int.compare, \
   Edge.compare, String.compare — so orderings are explicit and stable. With \
   a typed tree the rule flags compare/(=)/(<>)/(<) only at non-atomic \
   instantiation types (atoms: int, bool, char, unit, string, float, and \
   option/list/array/ref thereof) and exempts comparisons against constant \
   constructors (x = None, xs <> []); the syntactic fallback flags bare \
   [compare] and structural literals under (=)."

let d4_classify ~ancestors e =
  match ident_path e with
  | Some ([ "compare" ] | [ "Poly"; _ ]) ->
    Some
      ( None,
        "polymorphic compare orders values by memory layout; use a dedicated \
         comparator (Int.compare, Edge.compare, ...)" )
  | Some [ ("=" | "<>") as op ] ->
    (* Only when this ident is the function of the enclosing apply
       and an argument is a structured literal. *)
    let structured_arg =
      match ancestors with
      | outer :: _ -> (
        match outer.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (fn, args) when fn == e ->
          List.exists (fun (_, a) -> is_structured a) args
        | _ -> false)
      | [] -> false
    in
    if structured_arg then
      Some
        ( None,
          Printf.sprintf
            "polymorphic (%s) on a structured value; use a dedicated equality" op )
    else None
  | _ -> None

let d4_applies = in_dirs d4_dirs

let d4 =
  expr_rule ~id:"D4" ~severity:Finding.Error
    ~doc:
      "polymorphic compare in lib/core//lib/distributed (use Int.compare, \
       Edge.compare, or a dedicated comparator)"
    ~explain:d4_explain ~applies:d4_applies d4_classify

(* ------------------------------------------------------------------ *)
(* D5: ignoring a Result (syntactic).                                 *)
(*                                                                    *)
(* Typing is unavailable, so we flag the shapes that are certainly    *)
(* Results: literal Ok/Error constructions, the Result combinators,   *)
(* and this repo's known checkers (Graph.check_invariants,            *)
(* Registry.check, Tables.check, ... named check.../validate...).     *)
(* The typed variant flags any [ignore] whose argument's type is      *)
(* [result], whatever the callee is called.                           *)

let result_returning_names = [ "check"; "check_invariants"; "validate" ]
let result_combinators = [ "map"; "bind"; "join"; "map_error" ]

let is_result_expr e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_construct ({ txt = Longident.Lident ("Ok" | "Error"); _ }, Some _)
    ->
    true
  | Parsetree.Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some [ "Result"; f ] -> List.mem f result_combinators
    | Some path -> (
      match List.rev path with
      | last :: _ -> List.mem last result_returning_names
      | [] -> false)
    | None -> false)
  | _ -> false

let d5_explain =
  "An ignored Result silently swallows its Error case — usually a broken \
   invariant check (Graph.check_invariants, Registry.check, ...). Match on \
   the result instead, or handle the Error explicitly. With a typed tree any \
   [ignore e] where [e : (_, _) result] is flagged, regardless of the \
   callee's name; the syntactic fallback only recognises literal Ok/Error, \
   Result combinators, and callees named check*/validate*."

let d5_classify ~ancestors:_ e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) -> (
    match ident_path fn with
    | Some [ "ignore" ] when is_result_expr arg ->
      Some
        ( None,
          "this expression is a Result; ignoring it swallows the Error case — \
           match on it" )
    | _ -> None)
  | _ -> None

let d5 =
  expr_rule ~id:"D5" ~severity:Finding.Error
    ~doc:"ignore of a Result-typed expression (match on it instead)"
    ~explain:d5_explain ~applies:everywhere d5_classify
