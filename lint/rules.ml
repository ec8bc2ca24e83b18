(* The assembled rule catalogue.

   Families:
   - D (determinism, PR-3 lineage): D1/D3 syntactic, D2/D4/D5 typed
     with documented syntactic fallbacks ([Rules_d], [Rules_typed]).
   - C (clock discipline): the two-clock convention ([Rules_c]).
   - H (hot-path allocation): opt-in via [(* xlint: hot *)]
     ([Rules_h]).
   - U (unused exports): lib/ exports only what shipped code uses
     ([Rules_u]).

   One pseudo-rule is synthesised by the driver rather than run as a
   check: E0 (a file failed to parse). It appears here so [--explain],
   severities and the SARIF rule table cover every id a run can emit. *)

let all : Rule.t list =
  [
    Rules_d.d1;
    Rules_typed.d2;
    Rules_d.d3;
    Rules_typed.d4;
    Rules_typed.d5;
    Rules_c.c1;
    Rules_c.c2;
    Rules_h.h1;
    Rules_h.h2;
    Rules_h.h3;
    Rules_h.h4;
    Rules_u.u1;
  ]

(* id, severity, doc, explain — for findings the driver synthesises. *)
let pseudo : (string * Finding.severity * string * string) list =
  [
    ( "E0",
      Finding.Error,
      "source file failed to parse",
      "xlint could not parse this file, so no rule ran on it. The finding's \
       message carries the parser's own error. Fix the syntax error; xlint \
       never silently skips unparseable files." );
  ]

let find id = List.find_opt (fun (r : Rule.t) -> r.Rule.id = id) all

let meta id =
  match find id with
  | Some r -> Some (r.Rule.severity, r.Rule.doc, r.Rule.explain)
  | None ->
    List.find_map
      (fun (pid, sev, doc, explain) ->
        if pid = id then Some (sev, doc, explain) else None)
      pseudo

let severity_of id =
  match meta id with Some (sev, _, _) -> sev | None -> Finding.Error

let explain id = Option.map (fun (_, _, e) -> e) (meta id)

(* Every id a run can emit, catalogue order then pseudo. *)
let ids =
  List.map (fun (r : Rule.t) -> r.Rule.id) all
  @ List.map (fun (i, _, _, _) -> i) pseudo
