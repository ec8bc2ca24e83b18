(* Determinism rules that need no types: D1 and D3 (Parsetree).

   Every correctness claim in this repo — QCheck conformance of the
   event engine against [Netsim.run_reference], seeded-replay
   determinism, the experiment tables — assumes runs are
   bit-reproducible under a seed, and the D rules mechanise the
   discipline. A global draw and a wall-clock read are certain from
   their names alone; D2, D4 and D5 need the typed tree and live in
   [Rules_typed]. *)

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
