(* The assembled rule catalogue.

   Families:
   - D (determinism): D1/D3 syntactic ([Rules_d]), D2/D4/D5 typed
     ([Rules_typed]).
   - C (clock discipline): the two-clock convention ([Rules_c]).
   - H (hot-path allocation): opt-in via [(* xlint: hot *)]
     ([Rules_h]).
   - U (unused exports): lib/ exports only what shipped code uses
     ([Rules_u]).

   Two pseudo-rules are synthesised by [Driver] rather than run as
   checks: E0 (a file failed to parse) and E1 (a file could not be
   typed). They appear here so [--explain], severities and the SARIF
   rule table cover every id a run can emit. *)

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
    ( "E1",
      Finding.Error,
      "source file could not be typed, so no typed rule ran on it",
      "The typed rules (D2, D4, D5, H4, U1) read the typed tree the build \
       writes beside each compiled unit (its .cmt side-car, under \
       _build/default/ when xlint runs from the source root). A file with no \
       side-car is typed on its own against the standard library. When neither \
       gives a tree, or the side-car is older than the source, xlint reports \
       the file here, with the reason, and runs only the syntactic rules on \
       it: no typed rule stands down silently. Build first (dune build \
       @check), or make a stand-alone file type on its own." );
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
