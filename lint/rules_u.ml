(* U-rules: lib/ exports only what the shipped system uses.

   U1  (typed) an exported value of a lib/ unit that no shipped code
       refers to — test oracles and fixture builders live in test/.

   A unit's exports are the [val]s of its [.mli] (read from the
   [.cmti] beside its [.cmt]), or, for a unit with no [.mli], its
   top-level values. Its users are every [Texp_ident] in every typed
   tree the build wrote outside test/ ([Typedload.shipped_structures],
   read once per run), so bin/, bench/, examples/, perfbench/ and
   lint/ count as users whether or not a run lints them, plus the
   unit's own tree. A unit the build did not compile (a fixture) has
   no users but itself.

   A reference names its value by the [val_loc] it carries: the [.mli]
   declaration when it goes through the interface, the binding in the
   [.ml] when it stays inside the unit. Both are keyed by file, line
   and {e column}: an optional argument's default ([?(x = 0)]) is bound
   on its function's line, so a key without the column would count
   every such function as used. Matching names instead would count a
   record field read ([r.max_ratio]) as a use of the value
   [max_ratio]. *)

open Rule

let key_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let add_refs refs str =
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (_, _, vd) -> Hashtbl.replace refs (key_of vd.Types.val_loc) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

let shipped_refs =
  lazy
    (let refs = Hashtbl.create 65536 in
     List.iter (add_refs refs) (Typedload.shipped_structures ());
     refs)

(* The top-level values a unit binds, each under the location of its
   name: the last binding of a name, which shadows the others. *)
let bindings str =
  List.concat_map
    (fun item ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.map
          (fun (id, name, _) -> (Ident.name id, name.Location.loc))
          (Typedtree.let_bound_idents_full vbs)
      | _ -> [])
    str.Typedtree.str_items
  |> List.fold_left (fun acc (name, loc) -> (name, loc) :: List.remove_assoc name acc) []

let u1_typed ctx str =
  match str.Typedtree.str_items with
  | [] -> []
  | first :: _ ->
    (* The file the tree was typed from, where the build's side-cars
       are looked up (a fixture linted under another name included). *)
    let source = first.Typedtree.str_loc.Location.loc_start.Lexing.pos_fname in
    let own = Hashtbl.create 256 in
    add_refs own str;
    let compiled = Typedload.from_cmt source <> None in
    let used loc =
      let k = key_of loc in
      Hashtbl.mem own k || (compiled && Hashtbl.mem (Lazy.force shipped_refs) k)
    in
    let bound = bindings str in
    let exports =
      match Typedload.interface source with
      | Some sg ->
        List.filter_map
          (fun item ->
            match item.Typedtree.sig_desc with
            | Typedtree.Tsig_value vd ->
              Option.map
                (fun loc -> (vd.Typedtree.val_name.Location.txt, Some vd.Typedtree.val_val.Types.val_loc, loc))
                (List.assoc_opt vd.Typedtree.val_name.Location.txt bound)
            | _ -> None)
          sg.Typedtree.sig_items
      | None -> List.map (fun (name, loc) -> (name, None, loc)) bound
    in
    let unit_name = String.capitalize_ascii (Filename.remove_extension (Filename.basename ctx.path)) in
    List.filter_map
      (fun (name, decl, loc) ->
        if used loc || Option.fold ~none:false ~some:used decl then None
        else
          Some
            (finding ~ctx ~id:"U1" loc
               (Printf.sprintf
                  "%s.%s is exported, but no code outside test/ uses it; move it into \
                   test/support.ml or delete it"
                  unit_name name)))
      exports

let u1 =
  {
    id = "U1";
    severity = Finding.Error;
    doc = "exported lib/ value that no shipped code uses (typed)";
    explain =
      "lib/ ships the healer and the instruments that check it; test oracles \
       and fixture builders live in test/ (test/support.ml). U1 reads every \
       typed tree the build wrote outside test/ (lib/, bin/, bench/, \
       examples/, perfbench/, lint/) and flags each value a lib/ unit exports \
       (its .mli's vals, or its top-level values when it has no .mli) that no \
       identifier there refers to; the unit's own uses count. Move a value \
       that only tests call into test/, or delete it with the test that alone \
       checks it. An export that only tests reach stays only under a \
       (* xlint: disable=U1 *) pragma on its binding that says why. This rule \
       needs the typed tree and has no syntactic fallback.";
    applies = in_dirs [ "lib/" ];
    check = Typed u1_typed;
  }
