(* Typed-tree loading for the typed rules (D2, D4, D5, H4, U1).

   Two strategies, tried in order:

   1. {b cmt files}. Every source [dir/foo.ml] the build compiled has a
      side-car [.<lib>.objs/byte/<Lib>__Foo.cmt] (or [.eobjs] for
      executables) whose [cmt_sourcefile] is the repo-relative source
      path. Dune writes it beside the source's copy in the build tree:
      under [dir] itself when xlint runs in [_build/default] (the
      @lint alias, after [(alias_rec check)] has compiled everything),
      under [_build/default/dir] when it runs from the source root. We
      index each directory's side-cars once and match by source path,
      so the walk sees exactly the tree the compiler typed — module
      aliases, wrapped names and all. A unit with an [.mli] also has a
      [.cmti] there, indexed the same way. A side-car whose source
      digest differs from the file's is stale and is not used.

   2. {b direct typing}. A file with no side-car (the fixture corpus)
      is typed from scratch against the stdlib-only initial
      environment. Self-contained files type fine; a file that refers
      to workspace modules does not.

   [for_file] says why when neither works, and [Driver] reports the
   file as E1: no typed rule runs on a file without a typed tree, and
   none stands in for it. *)

(* ------------------------------------------------------------------ *)
(* Strategy 1: cmt side-cars.                                         *)

let is_objs_dir name =
  String.length name > 1 && name.[0] = '.'
  && (Filename.check_suffix name ".objs" || Filename.check_suffix name ".eobjs")

(* What the build typed in one source directory, by source basename:
   each implementation's structure ("graph.ml") with the digest of the
   source it was typed from, and each interface's signature
   ("graph.mli", from the [.cmti] beside the [.cmt]). Populated lazily,
   one read per side-car per process. *)
type index = {
  impls : (string, Typedtree.structure * string option) Hashtbl.t;
  intfs : (string, Typedtree.signature) Hashtbl.t;
}

let dir_cache : (string, index) Hashtbl.t = Hashtbl.create 16

let add_side_car idx path =
  let add tbl src v =
    let base = Filename.basename src in
    if not (Hashtbl.mem tbl base) then Hashtbl.add tbl base v
  in
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str; cmt_sourcefile = Some src;
      cmt_source_digest; _ } ->
    add idx.impls src (str, cmt_source_digest)
  | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_sourcefile = Some src; _ } ->
    add idx.intfs src sg
  | _ -> ()
  | exception _ -> ()

(* The side-cars of source directory [dir]: beside it in the build
   tree, under [_build/default/] from the source root. *)
let index_dir dir =
  match Hashtbl.find_opt dir_cache dir with
  | Some idx -> idx
  | None ->
    let idx = { impls = Hashtbl.create 8; intfs = Hashtbl.create 8 } in
    List.iter
      (fun build_dir ->
        try
          Sys.readdir build_dir |> Array.to_list |> List.sort String.compare
          |> List.iter (fun name ->
                 if is_objs_dir name then begin
                   let byte = Filename.concat (Filename.concat build_dir name) "byte" in
                   if Sys.file_exists byte && Sys.is_directory byte then
                     Sys.readdir byte |> Array.to_list |> List.sort String.compare
                     |> List.iter (fun f ->
                            if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
                            then add_side_car idx (Filename.concat byte f))
                 end)
        with Sys_error _ -> ())
      [ dir; Filename.concat "_build/default" dir ];
    Hashtbl.add dir_cache dir idx;
    idx

let side_car path =
  Hashtbl.find_opt (index_dir (Filename.dirname path)).impls (Filename.basename path)

let from_cmt path = Option.map fst (side_car path)

(* The typed [.mli] of the unit whose implementation is [path]. *)
let interface path =
  Hashtbl.find_opt
    (index_dir (Filename.dirname path)).intfs
    (Filename.basename path ^ "i")

(* Every implementation the build typed for the directories under the
   working directory (the build tree, or the source root), except
   those of the top-level [test/]: the shipped code, whichever
   directories a run lints. In no fixed order within a directory. *)
let shipped_structures () =
  let rec walk dir =
    let here =
      Hashtbl.fold (fun _ (str, _) acc -> str :: acc) (index_dir dir).impls []
    in
    let subdirs =
      (try Sys.readdir dir |> Array.to_list |> List.sort String.compare with Sys_error _ -> [])
      |> List.filter_map (fun name ->
             let path = if dir = "." then name else Filename.concat dir name in
             if name = "" || name.[0] = '.' || name.[0] = '_' || path = "test"
                || not (Sys.is_directory path)
             then None
             else Some path)
    in
    here @ List.concat_map walk subdirs
  in
  walk "."

(* ------------------------------------------------------------------ *)
(* Strategy 2: direct typing against the initial environment.         *)

let initial_env =
  lazy
    (Clflags.dont_write_files := true;
     (* The fixture corpus deliberately contains smelly code; compiler
        warnings (and the 5.x auto-include alert init_path triggers)
        are not xlint's output. *)
     ignore (Warnings.parse_options false "-a");
     (try Warnings.parse_alert_option "-all" with _ -> ());
     Compmisc.init_path ();
     Compmisc.initial_env ())

(* The compiler's own message for a typing error, on one line. *)
let error_text exn =
  let text =
    match Location.error_of_exn exn with
    | Some (`Ok report) -> Format.asprintf "%t" report.Location.main.Location.txt
    | Some `Already_displayed | None -> Printexc.to_string exn
  in
  String.split_on_char '\n' text |> List.map String.trim |> String.concat " "

let type_source parsed =
  match Typemod.type_structure (Lazy.force initial_env) parsed with
  | tstr, _, _, _, _ -> Ok tstr
  | exception exn ->
    Error ("it has no build side-car and does not type on its own: " ^ error_text exn)

(* ------------------------------------------------------------------ *)

let for_file ~path parsed =
  match side_car path with
  | Some (str, digest) when Option.equal String.equal digest (Some (Digest.file path)) -> Ok str
  | Some _ -> Error "its build side-car is stale (the source changed since the last build)"
  | None -> type_source parsed
