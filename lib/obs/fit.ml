let schema_version = "fpgasat.scaling/1"
let min_seconds = 1e-6

type point = { x : float; y : float; group : string }

type fit = {
  strategy : string;
  dimension : string;
  exponent : float;
  intercepts : (string * float) list;
  r2 : float;
  points : int;
  censored : int;
}

(* ---------- least squares ---------- *)

(* Pooled OLS: one slope shared by all groups, one intercept per group.
   Centering each point on its group's means eliminates the intercepts
   from the slope estimate, so the slope is the classic Sxy/Sxx over the
   within-group deviations. *)
let power_law ~strategy ~dimension ?(censored = 0) pts =
  if List.length pts < 2 then
    Error
      (Printf.sprintf "fit %s/%s: need at least 2 points, have %d" strategy
         dimension (List.length pts))
  else
    let logs =
      List.map
        (fun p -> (p.group, log p.x, log (Float.max p.y min_seconds)))
        pts
    in
    let groups =
      List.fold_left
        (fun acc (g, _, _) -> if List.mem g acc then acc else g :: acc)
        [] logs
      |> List.rev
    in
    let means =
      List.map
        (fun g ->
          let mine = List.filter (fun (g', _, _) -> g' = g) logs in
          let n = float_of_int (List.length mine) in
          let sx = List.fold_left (fun a (_, lx, _) -> a +. lx) 0. mine in
          let sy = List.fold_left (fun a (_, _, ly) -> a +. ly) 0. mine in
          (g, sx /. n, sy /. n))
        groups
    in
    let mean_of g =
      let _, mx, my = List.find (fun (g', _, _) -> g' = g) means in
      (mx, my)
    in
    let sxx, sxy, syy =
      List.fold_left
        (fun (sxx, sxy, syy) (g, lx, ly) ->
          let mx, my = mean_of g in
          let dx = lx -. mx and dy = ly -. my in
          (sxx +. (dx *. dx), sxy +. (dx *. dy), syy +. (dy *. dy)))
        (0., 0., 0.) logs
    in
    if sxx <= 0. then
      Error
        (Printf.sprintf
           "fit %s/%s: no group varies along %s (slope undefined)" strategy
           dimension dimension)
    else
      let exponent = sxy /. sxx in
      let intercepts =
        List.map (fun (g, mx, my) -> (g, my -. (exponent *. mx))) means
      in
      let ss_res =
        List.fold_left
          (fun acc (g, lx, ly) ->
            let i = List.assoc g intercepts in
            let r = ly -. (i +. (exponent *. lx)) in
            acc +. (r *. r))
          0. logs
      in
      let r2 = if syy <= 0. then 1. else 1. -. (ss_res /. syy) in
      Ok
        {
          strategy;
          dimension;
          exponent;
          intercepts;
          r2;
          points = List.length pts;
          censored;
        }

let mean_intercept f =
  match f.intercepts with
  | [] -> 0.
  | is ->
      List.fold_left (fun a (_, i) -> a +. i) 0. is
      /. float_of_int (List.length is)

let eval f ~group x =
  let i =
    match List.assoc_opt group f.intercepts with
    | Some i -> i
    | None -> mean_intercept f
  in
  exp (i +. (f.exponent *. log x))

let residuals f pts =
  List.map
    (fun p ->
      let i =
        match List.assoc_opt p.group f.intercepts with
        | Some i -> i
        | None -> mean_intercept f
      in
      log (Float.max p.y min_seconds) -. (i +. (f.exponent *. log p.x)))
    pts

let crossover_of_fits f1 f2 =
  let de = f1.exponent -. f2.exponent in
  if Float.abs de < 1e-9 then None
  else
    let x = exp ((mean_intercept f2 -. mean_intercept f1) /. de) in
    if Float.is_finite x && x > 0. then Some x else None

(* ---------- the scaling document ---------- *)

type crossover = { dimension : string; slow : string; fast : string; at : float }

type scaling = {
  seed : int;
  family : string;
  fits : fit list;
  crossovers : crossover list;
}

let fit_to_json f =
  Json.Obj
    [
      ("strategy", Json.String f.strategy);
      ("dimension", Json.String f.dimension);
      ("exponent", Json.Float f.exponent);
      ( "intercepts",
        Json.Obj (List.map (fun (g, i) -> (g, Json.Float i)) f.intercepts) );
      ("r2", Json.Float f.r2);
      ("points", Json.Int f.points);
      ("censored", Json.Int f.censored);
    ]

let crossover_to_json c =
  Json.Obj
    [
      ("dimension", Json.String c.dimension);
      ("slow", Json.String c.slow);
      ("fast", Json.String c.fast);
      ("at", Json.Float c.at);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("seed", Json.Int t.seed);
      ("family", Json.String t.family);
      ("fits", Json.List (List.map fit_to_json t.fits));
      ("crossovers", Json.List (List.map crossover_to_json t.crossovers));
    ]

let ( let* ) = Result.bind

let field_string json key =
  match Json.find json key with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "key %S is not a string" key)
  | None -> Error (Printf.sprintf "missing key %S" key)

let field_int json key =
  match Json.find json key with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "key %S is not an integer" key)
  | None -> Error (Printf.sprintf "missing key %S" key)

let field_float json key =
  match Json.find json key with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some _ -> Error (Printf.sprintf "key %S is not a number" key)
  | None -> Error (Printf.sprintf "missing key %S" key)

let field_list json key =
  match Json.find json key with
  | Some (Json.List l) -> Ok l
  | Some _ -> Error (Printf.sprintf "key %S is not a list" key)
  | None -> Error (Printf.sprintf "missing key %S" key)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let fit_of_json json =
  let* strategy = field_string json "strategy" in
  let* dimension = field_string json "dimension" in
  let* exponent = field_float json "exponent" in
  let* intercepts =
    match Json.find json "intercepts" with
    | Some (Json.Obj kvs) ->
        map_result
          (fun (g, v) ->
            match v with
            | Json.Float f -> Ok (g, f)
            | Json.Int i -> Ok (g, float_of_int i)
            | _ -> Error (Printf.sprintf "intercept %S is not a number" g))
          kvs
    | Some _ -> Error "key \"intercepts\" is not an object"
    | None -> Error "missing key \"intercepts\""
  in
  let* r2 = field_float json "r2" in
  let* points = field_int json "points" in
  let* censored = field_int json "censored" in
  Ok { strategy; dimension; exponent; intercepts; r2; points; censored }

let crossover_of_json json =
  let* dimension = field_string json "dimension" in
  let* slow = field_string json "slow" in
  let* fast = field_string json "fast" in
  let* at = field_float json "at" in
  Ok { dimension; slow; fast; at }

let of_json json =
  let* schema = field_string json "schema" in
  if schema <> schema_version then
    Error
      (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  else
    let* seed = field_int json "seed" in
    let* family = field_string json "family" in
    let* fits = field_list json "fits" in
    let* fits = map_result fit_of_json fits in
    let* crossovers = field_list json "crossovers" in
    let* crossovers = map_result crossover_of_json crossovers in
    Ok { seed; family; fits; crossovers }

let of_string s =
  match Json.of_string s with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok json -> of_json json

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> of_string contents

let to_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t));
      Out_channel.output_char oc '\n')

let equal a b = Json.equal (to_json a) (to_json b)

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "scaling fits (seed %d, %s family): t ~ C * x^e\n" t.seed
       t.family);
  Buffer.add_string buf
    (Printf.sprintf "  %-36s %-6s %9s %7s %4s %5s\n" "strategy" "dim"
       "exponent" "r2" "pts" "cens");
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  %-36s %-6s %9.3f %7.3f %4d %5d\n" f.strategy
           f.dimension f.exponent f.r2 f.points f.censored))
    t.fits;
  (* The headline reading: per dimension, each strategy's big-O and where
     the curves cross. *)
  let dims =
    List.fold_left
      (fun acc (f : fit) ->
        if List.mem f.dimension acc then acc else f.dimension :: acc)
      [] t.fits
    |> List.rev
  in
  List.iter
    (fun dim ->
      let here =
        List.filter (fun (f : fit) -> f.dimension = dim) t.fits
      in
      let os =
        List.map
          (fun (f : fit) ->
            Printf.sprintf "%s is O(%s^%.1f)" f.strategy dim f.exponent)
          here
      in
      if os <> [] then
        Buffer.add_string buf
          (Printf.sprintf "%s: %s\n" dim (String.concat ", " os));
      List.iter
        (fun c ->
          if c.dimension = dim then
            Buffer.add_string buf
              (Printf.sprintf "  crossover: %s overtakes %s beyond %s ~ %.0f\n"
                 c.slow c.fast dim c.at))
        t.crossovers)
    dims;
  Buffer.contents buf

let exponents t =
  List.map (fun f -> (f.strategy ^ "|" ^ f.dimension, f.exponent)) t.fits
