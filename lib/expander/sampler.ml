module Int_table = Xheal_graph.Int_table

(* The elements sit in [arr.(0 .. len-1)], in the order every draw
   reads. A sampler of at most [small] elements finds a position by
   scanning them; past that it keeps [pos], element -> position, and
   drops it again once it shrinks back to [small]. *)
type t = {
  mutable arr : int array;
  mutable len : int;
  mutable pos : int Int_table.t option;
}

let small = 16

let create ?(capacity = 8) () = { arr = Array.make (max 1 capacity) 0; len = 0; pos = None }

let size t = t.len

(* Position of [x], or -1 when absent. *)
let index t x =
  match t.pos with
  | Some pos -> ( match Int_table.find pos x with i -> i | exception Not_found -> -1)
  | None ->
    let rec scan i = if i = t.len then -1 else if t.arr.(i) = x then i else scan (i + 1) in
    scan 0

let mem t x = index t x >= 0

let grow t =
  if t.len >= Array.length t.arr then begin
    let bigger = Array.make (2 * Array.length t.arr) 0 in
    Array.blit t.arr 0 bigger 0 t.len;
    t.arr <- bigger
  end

let add t x =
  if mem t x then false
  else begin
    grow t;
    t.arr.(t.len) <- x;
    t.len <- t.len + 1;
    (match t.pos with
    | Some pos -> Int_table.replace pos x (t.len - 1)
    | None ->
      if t.len > small then begin
        let pos = Int_table.create (Array.length t.arr) in
        for i = 0 to t.len - 1 do
          Int_table.replace pos t.arr.(i) i
        done;
        t.pos <- Some pos
      end);
    true
  end

let remove t x =
  let i = index t x in
  if i < 0 then false
  else begin
    let last = t.len - 1 in
    let y = t.arr.(last) in
    t.arr.(i) <- y;
    t.arr.(last) <- 0;
    t.len <- last;
    (match t.pos with
    | Some _ when last <= small -> t.pos <- None
    | Some pos ->
      Int_table.remove pos x;
      if y <> x then Int_table.replace pos y i
    | None -> ());
    true
  end

let of_list xs =
  let t = create ~capacity:(List.length xs) () in
  List.iter (fun x -> ignore (add t x)) xs;
  t

let sample ~rng t = if t.len = 0 then None else Some t.arr.(Random.State.int rng t.len)

let sample_other ~rng t x =
  let i = index t x in
  if i < 0 then sample ~rng t
  else if t.len <= 1 then None
  else begin
    let j = Random.State.int rng (t.len - 1) in
    let j = if j >= i then j + 1 else j in
    Some t.arr.(j)
  end

let to_list t = List.sort Int.compare (Array.to_list (Array.sub t.arr 0 t.len))

let iter f t =
  for i = 0 to t.len - 1 do
    f t.arr.(i)
  done
