type t = { priority : int; insns : Insn.t array }

let clamp_priority p = if p < 0 then 0 else if p > 255 then 255 else p
let v ?(priority = 0) insns = { priority = clamp_priority priority; insns = Array.of_list insns }
let empty ?(priority = 0) () = v ~priority []
let priority t = t.priority
let with_priority t p = { t with priority = clamp_priority p }
let insns t = Array.to_list t.insns
let insn_count t = Array.length t.insns

let code_words t =
  Array.fold_left (fun acc i -> acc + Insn.encoded_length i) 0 t.insns

let uses_extensions t = Array.exists Insn.is_extension t.insns

let equal a b =
  a.priority = b.priority
  && Array.length a.insns = Array.length b.insns
  && Array.for_all2 Insn.equal a.insns b.insns

let encode t =
  let code = List.concat_map Insn.encode (insns t) in
  t.priority :: List.length code :: code

type decode_error =
  | Missing_header
  | Length_mismatch of { declared : int; available : int }
  | Bad_insn of { index : int; error : Insn.decode_error }

let pp_decode_error ppf = function
  | Missing_header -> Format.fprintf ppf "missing priority/length header"
  | Length_mismatch { declared; available } ->
    Format.fprintf ppf "declared length %d but %d code words present" declared available
  | Bad_insn { index; error } ->
    Format.fprintf ppf "instruction %d: %a" index Insn.pp_decode_error error

let decode words =
  match words with
  | [] | [ _ ] -> Error Missing_header
  | prio :: len :: code ->
    let available = List.length code in
    if len <> available then Error (Length_mismatch { declared = len; available })
    else begin
      let rec loop index acc = function
        | [] -> Ok (v ~priority:prio (List.rev acc))
        | words -> (
          match Insn.decode words with
          | Error error -> Error (Bad_insn { index; error })
          | Ok (insn, rest) -> loop (index + 1) (insn :: acc) rest)
      in
      loop 0 [] code
    end

let to_string t =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "priority %d\n" t.priority);
  Array.iter (fun i -> Buffer.add_string b (Insn.to_string i ^ "\n")) t.insns;
  Buffer.contents b

let of_string s =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let lines =
    String.split_on_char '\n' s
    |> List.map (fun line -> String.trim (strip_comment line))
    |> List.filter (fun line -> line <> "")
  in
  let parse_line (prio, acc) line =
    match (prio, acc) with
    | _, Error _ -> (prio, acc)
    | _, Ok insns -> (
      match String.split_on_char ' ' line with
      | "priority" :: rest -> (
        match int_of_string_opt (String.concat "" rest) with
        | Some p -> (p, Ok insns)
        | None -> (prio, Error (Printf.sprintf "bad priority line %S" line)))
      | _ -> (
        match Insn.of_string line with
        | Ok i -> (prio, Ok (i :: insns))
        | Error e -> (prio, Error e)))
  in
  match List.fold_left parse_line (0, Ok []) lines with
  | prio, Ok insns -> Ok (v ~priority:prio (List.rev insns))
  | _, Error e -> Error e

let pp ppf t =
  Format.fprintf ppf "@[<v>priority %d" t.priority;
  Array.iter (fun i -> Format.fprintf ppf "@,%a" Insn.pp i) t.insns;
  Format.fprintf ppf "@]"
