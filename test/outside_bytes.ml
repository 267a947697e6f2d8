(* Never-raises properties for the readers of outside bytes, shared by the
   suites whose readers take them. A reader returns a value or reports the
   input as bad in its own way; a property fails on any exception. Each
   reader gets token soup (its own keywords, sizes at and past the caps,
   integers at the edges of [int]) and a valid input with one byte
   replaced. *)

let token_soup tokens =
  QCheck2.Gen.(
    map (String.concat "") (list_size (int_range 0 24) (oneofl tokens)))

(* The new byte is any byte, or half the time one of the input's own, which
   turns ids, coordinates and sizes into one another. *)
let one_byte_replaced text =
  let pos = QCheck2.Gen.int_bound (String.length text - 1) in
  QCheck2.Gen.(
    map2
      (fun pos c ->
        let b = Bytes.of_string text in
        Bytes.set b pos c;
        Bytes.to_string b)
      pos
      (oneof [ char; map (String.get text) pos ]))

let int_edges =
  [ "0"; "-1"; "4611686018427387903"; "-4611686018427387904";
    "99999999999999999999" ]

(* [never_raises (name, read, tokens, valid)]: the two properties of one
   reader, where [read] raises on failure only. *)
let never_raises (name, read, tokens, valid) =
  let prop what gen =
    QCheck2.Test.make ~count:1000
      ~name:(Printf.sprintf "%s never raises on %s" name what)
      gen
      (fun s ->
        read s;
        true)
  in
  [
    prop "token soup" (token_soup (tokens @ int_edges));
    prop "a valid file with one byte replaced" (one_byte_replaced valid);
  ]

(* A fixed default seed keeps failures reproducible; QCHECK_SEED overrides
   it. *)
let seeded_qtests =
  let seed =
    match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> 20080307
  in
  List.map (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)
