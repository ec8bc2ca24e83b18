(** Plain-text table rendering for the experiment harness. *)

val render : header:string list -> string list list -> string
(** Monospace table with a header rule. Columns are sized to their widest
    cell; the first column is left-aligned and the rest right-aligned
    (numeric convention). Rows shorter than the header are padded with
    empty cells. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point rendering with [inf]/[nan] spelled out (default 3
    decimals). *)

val fmt_ratio : float -> string
(** Two-decimal rendering with a trailing [x]. *)
