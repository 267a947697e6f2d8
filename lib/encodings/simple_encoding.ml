type kind = Direct | Muldirect | Log | Ite_linear | Ite_log

let all_kinds = [ Direct; Muldirect; Log; Ite_linear; Ite_log ]

let kind_name = function
  | Direct -> "direct"
  | Muldirect -> "muldirect"
  | Log -> "log"
  | Ite_linear -> "ite-linear"
  | Ite_log -> "ite-log"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "direct" -> Some Direct
  | "muldirect" -> Some Muldirect
  | "log" -> Some Log
  | "ite-linear" | "itelinear" -> Some Ite_linear
  | "ite-log" | "itelog" -> Some Ite_log
  | _ -> None

let bits_needed k =
  let rec go b = if 1 lsl b >= k then b else go (b + 1) in
  go 0

let direct_layout ~at_most_one k =
  let patterns = Array.init k (fun v -> [ (v, true) ]) in
  let at_least_one = List.init k (fun v -> (v, true)) in
  let amo =
    if not at_most_one then []
    else
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j -> if j > i then Some [ (i, false); (j, false) ] else None)
            (List.init k Fun.id))
        (List.init k Fun.id)
  in
  {
    Layout.num_values = k;
    num_slots = k;
    patterns;
    side = at_least_one :: amo;
    exclusive = at_most_one;
  }

let log_layout k =
  let b = bits_needed k in
  let code v = List.init b (fun t -> (t, (v lsr t) land 1 = 1)) in
  let patterns = Array.init k code in
  let excluded =
    (* forbid the binary codes in [k, 2^b) *)
    List.init ((1 lsl b) - k) (fun i ->
        List.map (fun (s, pol) -> (s, not pol)) (code (k + i)))
  in
  {
    Layout.num_values = k;
    num_slots = b;
    patterns;
    side = excluded;
    exclusive = true;
  }

let tree_layout tree =
  let k = Ite_tree.num_leaves tree in
  let patterns = Array.make k [] in
  List.iter (fun (v, p) -> patterns.(v) <- p) (Ite_tree.paths tree);
  {
    Layout.num_values = k;
    num_slots = Ite_tree.num_slots tree;
    patterns;
    side = [];
    exclusive = true;
  }

let layout kind k =
  if k < 1 then invalid_arg "Simple_encoding.layout: empty domain";
  match kind with
  | Direct -> direct_layout ~at_most_one:true k
  | Muldirect -> direct_layout ~at_most_one:false k
  | Log -> log_layout k
  | Ite_linear -> tree_layout (Ite_tree.linear k)
  | Ite_log -> tree_layout (Ite_tree.balanced k)

let values_reachable kind n =
  match kind with
  | Direct | Muldirect -> n
  | Log | Ite_log -> 1 lsl n
  | Ite_linear -> n + 1
