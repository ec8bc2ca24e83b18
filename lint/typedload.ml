(* Typed-tree loading for the typed rule families.

   Two strategies, tried in order:

   1. {b cmt files}. When xlint runs from the build tree (the @lint
      alias executes in [_build/default], after [(alias_rec check)] has
      compiled everything), every source [dir/foo.ml] has a sibling
      [dir/.<lib>.objs/byte/<Lib>__Foo.cmt] (or [.eobjs] for
      executables) whose [cmt_sourcefile] is the repo-relative source
      path. We index each directory's cmt side-car once and match by
      source path, so the walk sees exactly the tree the compiler
      typed — module aliases, wrapped names and all. A unit with an
      [.mli] also has a [.cmti] there, indexed the same way.

   2. {b direct typing}. Files with no cmt (the fixture corpus, or a
      tree linted outside the build dir) are typed from scratch against
      the stdlib-only initial environment. Self-contained fixtures type
      fine; real library files referencing workspace modules fail fast
      and fall back to the syntactic rule variants, which document
      their approximations.

   Every failure path degrades to [None]; typed rules then run their
   syntactic fallback (if any), so a missing or stale cmt can weaken a
   rule back to PR-3 precision but never crash the lint. *)

(* ------------------------------------------------------------------ *)
(* Strategy 1: cmt side-cars.                                         *)

let is_objs_dir name =
  String.length name > 1 && name.[0] = '.'
  && (Filename.check_suffix name ".objs" || Filename.check_suffix name ".eobjs")

(* What the build typed in one source directory, by source basename:
   each implementation's structure ("graph.ml") and each interface's
   signature ("graph.mli", from the [.cmti] beside the [.cmt]).
   Populated lazily, one read per side-car per process. *)
type index = {
  impls : (string, Typedtree.structure) Hashtbl.t;
  intfs : (string, Typedtree.signature) Hashtbl.t;
}

let dir_cache : (string, index) Hashtbl.t = Hashtbl.create 16

let add_side_car idx path =
  let add tbl src v =
    let base = Filename.basename src in
    if not (Hashtbl.mem tbl base) then Hashtbl.add tbl base v
  in
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str; cmt_sourcefile = Some src; _ } ->
    add idx.impls src str
  | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_sourcefile = Some src; _ } ->
    add idx.intfs src sg
  | _ -> ()
  | exception _ -> ()

let index_dir dir =
  match Hashtbl.find_opt dir_cache dir with
  | Some idx -> idx
  | None ->
    let idx = { impls = Hashtbl.create 8; intfs = Hashtbl.create 8 } in
    (try
       Sys.readdir dir |> Array.to_list |> List.sort String.compare
       |> List.iter (fun name ->
              if is_objs_dir name then begin
                let byte = Filename.concat (Filename.concat dir name) "byte" in
                if Sys.file_exists byte && Sys.is_directory byte then
                  Sys.readdir byte |> Array.to_list |> List.sort String.compare
                  |> List.iter (fun f ->
                         if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
                         then add_side_car idx (Filename.concat byte f))
              end)
     with Sys_error _ -> ());
    Hashtbl.add dir_cache dir idx;
    idx

let from_cmt path =
  Hashtbl.find_opt (index_dir (Filename.dirname path)).impls (Filename.basename path)

(* The typed [.mli] of the unit whose implementation is [path]. *)
let interface path =
  Hashtbl.find_opt
    (index_dir (Filename.dirname path)).intfs
    (Filename.basename path ^ "i")

(* Every implementation the build typed under the build root (the
   working directory), except those of the top-level [test/]: the
   shipped code, whichever directories a run lints. In no fixed order
   within a directory. *)
let shipped_structures () =
  let rec walk dir =
    let here =
      Hashtbl.fold (fun _ str acc -> str :: acc) (index_dir dir).impls []
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

let type_source parsed =
  match Typemod.type_structure (Lazy.force initial_env) parsed with
  | tstr, _, _, _, _ -> Some tstr
  | exception _ -> None

(* ------------------------------------------------------------------ *)

let for_file ~path parsed =
  match from_cmt path with
  | Some str -> Some str
  | None -> type_source parsed
