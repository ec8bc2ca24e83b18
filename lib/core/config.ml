type t = { d : int; secondary_clouds : bool; half_rebuild : bool }

let default = { d = 2; secondary_clouds = true; half_rebuild = true }

let kappa t = 2 * t.d

let with_d d t = { t with d }

let validate t = if t.d < 1 then Error "Config: d must be >= 1" else Ok ()
