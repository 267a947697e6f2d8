type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  v.data.(i) <- x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) v.dummy in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let push v x =
  if v.size = Array.length v.data then grow v;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  let x = v.data.(v.size) in
  v.data.(v.size) <- v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  v.data.(v.size - 1)

(* Vacated slots are overwritten with [dummy] everywhere below: boxed
   elements kept alive past [size] are invisible to clients but visible to
   the GC, so a watch list shrunk during propagation would otherwise pin
   every clause it ever held. *)

let clear v =
  Array.fill v.data 0 v.size v.dummy;
  v.size <- 0

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.size - n) v.dummy;
  v.size <- n

let swap_remove v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.swap_remove";
  v.data.(i) <- v.data.(v.size - 1);
  v.data.(v.size - 1) <- v.dummy;
  v.size <- v.size - 1

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.size - 1) []

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    if p v.data.(i) then begin
      v.data.(!j) <- v.data.(i);
      incr j
    end
  done;
  Array.fill v.data !j (v.size - !j) v.dummy;
  v.size <- !j
