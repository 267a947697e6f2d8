let e name =
  match Encoding.of_name name with
  | Ok enc -> enc
  | Error msg -> invalid_arg ("Registry: " ^ msg)

let previously_used = [ e "log"; e "muldirect" ]
let direct = e "direct"

let new_encodings =
  [
    e "ITE-linear";
    e "ITE-log";
    e "ITE-log-1+ITE-linear";
    e "ITE-log-2+ITE-linear";
    e "ITE-log-2+direct";
    e "ITE-log-2+muldirect";
    e "ITE-linear-2+direct";
    e "ITE-linear-2+muldirect";
    e "direct-3+direct";
    e "direct-3+muldirect";
    e "muldirect-3+direct";
    e "muldirect-3+muldirect";
  ]

let all = previously_used @ [ direct ] @ new_encodings

let multi_level_extensions =
  [
    e "direct-2+direct-2+direct";
    e "muldirect-2+muldirect-2+muldirect";
    e "ITE-log-1+ITE-log-1+ITE-linear";
    e "ITE-linear-1+ITE-linear-1+muldirect";
  ]

let table2 =
  [
    e "muldirect";
    e "ITE-linear";
    e "ITE-log";
    e "ITE-linear-2+direct";
    e "ITE-linear-2+muldirect";
    e "muldirect-3+muldirect";
    e "direct-3+muldirect";
  ]

let in_registry enc =
  List.exists
    (fun known -> Encoding.compare known enc = 0)
    (all @ multi_level_extensions)

(* Membership modulo the !unshared sharing ablation: the ablation of a
   registry shape is still a registry shape for strategy resolution (the
   bench sweeps it). *)
let reshared = function
  | Encoding.Hier h -> Encoding.Hier { h with shared = true }
  | (Encoding.Simple _ | Encoding.Multi _) as enc -> enc

(* Total, validated resolution for the strategy layer (CLI -s, sweeps, the
   solve server). The permissive any-parseable-name passthrough this
   replaces let adversarial strings through to the encoder — e.g.
   "direct-999999+direct" parses fine and then allocates a layout sized by
   the attacker — so a network-facing caller could be crashed by a
   well-formed name. Raw exploration beyond the registry remains available
   through [Encoding.of_name] (the CLI's -e converters use it). *)
let of_name name =
  match Encoding.of_name name with
  | exception e ->
      Error
        (Printf.sprintf "encoding %S failed to parse: %s" name
           (Printexc.to_string e))
  | Error _ as err -> err
  | Ok enc ->
      if in_registry (reshared enc) then Ok enc
      else
        Error
          (Printf.sprintf
             "encoding %S is not in the registry (strategies are limited to \
              the paper's encodings and the tracked multi-level extensions; \
              see `fpgasat list`, or use the -e flags for raw encoding \
              exploration)"
             name)
