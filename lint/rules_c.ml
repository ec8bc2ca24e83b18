(* C-rules: the two-clock discipline, statically.

   The repo runs on two virtual clocks that must never mix (DESIGN
   §4e/§4g): the {e engine-rounds} clock (cost-model round charges —
   [Cost.add_phase], the Theorem-5 closed forms) and the {e net-virtual}
   clock (Netsim virtual time, the [~now] every protocol handler
   receives). [Tracer.claim_clock] enforces the convention at runtime;
   these rules promote it to a compile-time guarantee for [lib/core],
   [lib/distributed] and [lib/obs].

   The one sanctioned bridge is measured pricing: a protocol run's
   [Netsim.stats] billed as a [Cost.measured] (see [Pricing]) and summed
   with [Cost.add_measured]. Those calls are deliberately not in C2's
   engine-API list. *)

open Rule

let c_dirs = [ "lib/core/"; "lib/distributed/"; "lib/obs/" ]
let c_applies = in_dirs c_dirs

let known_clocks = [ "engine-rounds"; "net-virtual" ]

(* A [Tracer.claim_clock] application, with its clock argument when it
   is a string literal. *)
let claim_of e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, args) -> (
    match ident_path fn with
    | Some path when (match List.rev path with "claim_clock" :: _ -> true | _ -> false) ->
      let clock =
        List.find_map
          (fun (_, a) ->
            match a.Parsetree.pexp_desc with
            | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
            | _ -> None)
          args
      in
      Some (e.Parsetree.pexp_loc, clock)
    | _ -> None)
  | _ -> None

(* Engine-clock operations: the closed-form charges and the raw
   per-phase charge. [add_measured] is the sanctioned bridge and is
   absent on purpose. *)
let engine_ops =
  [ "add_phase"; "elect"; "distribute"; "splice"; "find_free"; "leader_replace"; "combine" ]

let is_cost_engine_apply e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some path -> (
      match List.rev path with
      | op :: "Cost" :: _ -> List.mem op engine_ops
      | _ -> false)
    | None -> false)
  | _ -> false

(* Does [e] mention the bare identifier [now]? (The handler convention:
   a [~now]-labelled parameter is net-virtual time.) *)
let mentions_now e =
  let found = ref false in
  let expr self x =
    (match ident_path x with Some [ "now" ] -> found := true | _ -> ());
    Ast_iterator.default_iterator.expr self x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Does [e] contain a [_.Cost.<field>] projection (an engine-clock
   value, e.g. [report.Cost.rounds])? *)
let mentions_cost_field e =
  let found = ref false in
  let expr self x =
    (match x.Parsetree.pexp_desc with
    | Parsetree.Pexp_field (_, { txt; _ }) -> (
      match Longident.flatten txt with
      | l when List.mem "Cost" l -> found := true
      | _ -> ()
      | exception _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let binds_now e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun ((Asttypes.Labelled "now" | Asttypes.Optional "now"), _, _, _) ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* C1: clock claims must be literal, known, and unique per binding.   *)

let c1_explain =
  "Tracer.claim_clock declares which time base a tracer's ~now values are on; \
   the repo has exactly two: \"engine-rounds\" (cost-model round charges) and \
   \"net-virtual\" (Netsim virtual time). A claim must be a string literal \
   (so the discipline is statically checkable), must name one of the two \
   known clocks, and one binding must not claim both — a timeline recorded \
   on two clocks is unreadable, which Tracer.check only discovers at runtime."

(* Per top-level value binding: collect claims, flag unknown/non-literal
   clocks and mixed claims. *)
let c1_check ctx str =
  let acc = ref [] in
  let flag ~span loc msg = acc := finding ~ctx ~id:"C1" ?span loc msg :: !acc in
  let check_binding vb =
    let claims = ref [] in
    let expr self e =
      (match claim_of e with
      | Some (loc, Some clock) ->
        if not (List.mem clock known_clocks) then
          flag ~span:None loc
            (Printf.sprintf
               "unknown clock %S; the two-clock convention knows \"engine-rounds\" and \
                \"net-virtual\""
               clock)
        else begin
          (match !claims with
          | (other, _) :: _ when other <> clock ->
            flag ~span:None loc
              (Printf.sprintf
                 "this binding claims both %S and %S; split it so each function \
                  touches one clock"
                 other clock)
          | _ -> ());
          claims := (clock, loc) :: !claims
        end
      | Some (loc, None) ->
        flag ~span:None loc
          "claim_clock with a non-literal clock name; use a string literal so the \
           clock discipline stays statically checkable"
      | None -> ());
      Ast_iterator.default_iterator.expr self e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.value_binding it vb
  in
  let item it_self item =
    (match item.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) -> List.iter check_binding vbs
    | _ -> Ast_iterator.default_iterator.structure_item it_self item);
    ()
  in
  let it = { Ast_iterator.default_iterator with structure_item = item } in
  it.structure it str;
  List.rev !acc

let c1 =
  {
    id = "C1";
    severity = Finding.Error;
    doc = "clock claims must be literal, known, and one per binding";
    explain = c1_explain;
    applies = c_applies;
    check = Syntactic c1_check;
  }

(* ------------------------------------------------------------------ *)
(* C2: no cross-clock value flow.                                     *)

let c2_explain =
  "A function that binds a ~now parameter lives on the net-virtual clock (the \
   Netsim handler convention), so inside it (a) claiming the \
   \"engine-rounds\" clock, (b) feeding [now] into an engine-clock Cost \
   operation (add_phase, elect, distribute, splice, find_free, \
   leader_replace, combine), and (c) passing an engine value \
   (a [_.Cost.<field>] projection) as a Tracer ~now are all cross-clock \
   flows. Convert between clocks only through the sanctioned measured-pricing \
   bridge: Netsim.stats billed as a Cost.measured and summed with \
   Cost.add_measured (see Pricing), which this rule deliberately exempts."

let tracer_time_calls = [ "begin_span"; "end_span"; "instant"; "sample" ]

let is_tracer_time_apply e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some path -> (
      match List.rev path with
      | op :: _ -> List.mem op tracer_time_calls
      | [] -> false)
    | None -> false)
  | _ -> false

let c2_classify ~ancestors e =
  let now_scoped = List.exists binds_now ancestors || binds_now e in
  if not now_scoped then None
  else
    match claim_of e with
    | Some (_, Some "engine-rounds") ->
      Some
        ( None,
          "a ~now-clocked (net-virtual) function claims the engine-rounds clock; \
           split the engine-side recording out of the handler" )
    | _ ->
      if is_cost_engine_apply e then begin
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (_, args)
          when List.exists (fun (_, a) -> mentions_now a) args ->
          Some
            ( None,
              "virtual-time [now] flows into an engine-rounds Cost operation; convert \
               via the measured-pricing bridge (Cost.add_measured) instead" )
        | _ -> None
      end
      else if is_tracer_time_apply e then begin
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (_, args)
          when List.exists
                 (fun (l, a) ->
                   l = Asttypes.Labelled "now" && mentions_cost_field a)
                 args ->
          Some
            ( None,
              "an engine-clock value (a Cost field) is passed as a net-virtual ~now; \
               record engine spans outside ~now-clocked handlers" )
        | _ -> None
      end
      else None

let c2 =
  expr_rule ~id:"C2" ~severity:Finding.Error
    ~doc:"cross-clock value flow between engine-rounds and net-virtual time"
    ~explain:c2_explain ~applies:c_applies c2_classify
