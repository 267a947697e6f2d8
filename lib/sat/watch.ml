type t = { mutable data : int array; mutable size : int }

let create () = { data = [||]; size = 0 }
let max_lits = 1 lsl (Sys.int_size - 32)
let max_refs = 1 lsl 32

let check who ~lits ~refs =
  if lits > max_lits then
    invalid_arg
      (Printf.sprintf "%s: %d literals, more than the %d a watcher holds" who
         lits max_lits);
  if refs > max_refs then
    invalid_arg
      (Printf.sprintf
         "%s: %d clause references, more than the %d a watcher holds" who refs
         max_refs)
