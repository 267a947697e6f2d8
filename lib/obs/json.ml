type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* shortest decimal form that parses back to the same float, forced to
   contain '.' or 'e' so the parser reads it back as a Float *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  let has_mark =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s
  in
  if has_mark then s else s ^ ".0"

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s -> escape_into buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          print_into buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_fail of string

let fail pos msg = raise (Parse_fail (Printf.sprintf "at offset %d: %s" pos msg))

(* Protocol lines and run records nest a few levels deep. The cap bounds
   the parser's stack on hostile input such as a long run of '['. *)
let max_depth = 64

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail !pos (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail !pos (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | Some _ | None -> false
    do
      advance ()
    done
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  (* exactly four hex digits, read by hand: [int_of_string] accepts an
     underscore after the first digit and raises on any other non-digit *)
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for k = !pos to !pos + 3 do
      let d =
        match s.[k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail k (Printf.sprintf "bad hex digit %C in \\u escape" c)
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                if cp >= 0xd800 && cp <= 0xdbff then begin
                  (* high surrogate: combine with the following low one *)
                  if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo < 0xdc00 || lo > 0xdfff then
                      fail !pos "invalid low surrogate";
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  end
                  else fail !pos "lone high surrogate"
                end
                else cp
              in
              add_utf8 buf cp
          | Some c -> fail !pos (Printf.sprintf "bad escape \\%C" c)
          | None -> fail !pos "truncated escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail !pos "raw control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continue () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> true
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          true
      | Some _ | None -> false
    in
    while continue () do
      advance ()
    done;
    if !pos = start then fail start "expected a value";
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* out of int range: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail start (Printf.sprintf "bad number %S" text))
  in
  (* opens an array or object inside [depth] others; each level is one
     frame of [parse_value]'s recursion *)
  let enter depth =
    if depth >= max_depth then
      fail !pos (Printf.sprintf "nested deeper than %d levels" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        enter depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        enter depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let binding () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let items = ref [ binding () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := binding () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
    | None -> fail !pos "expected a value"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail !pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail m -> Error m

(* ---------- accessors ---------- *)

let find v key =
  match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | String a, String b -> String.equal a b
  | List a, List b -> List.equal equal a b
  | Obj a, Obj b ->
      List.equal (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
