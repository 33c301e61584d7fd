module Packet = Pf_pkt.Packet

type action = Accept | Drop
type proto = Any_proto | Tcp | Udp
type addr = { addr : int32; prefix : int }
type ports = { lo : int; hi : int }

type t = {
  action : action;
  proto : proto;
  src : addr;
  sports : ports;
  dst : addr;
  dports : ports;
}

let prefix_mask prefix =
  if prefix = 0 then 0l
  else Int32.shift_left (-1l) (32 - prefix)

let any_addr = { addr = 0l; prefix = 0 }
let any_ports = { lo = 0; hi = 0xffff }

let addr_v a prefix =
  if prefix < 0 || prefix > 32 then
    invalid_arg "Rule.addr_v: prefix outside 0-32";
  { addr = Int32.logand a (prefix_mask prefix); prefix }

let ports_v lo hi =
  if lo < 0 || hi > 0xffff || lo > hi then
    invalid_arg "Rule.ports_v: need 0 <= lo <= hi <= 65535";
  { lo; hi }

let is_any_addr a = a.prefix = 0
let is_any_ports p = p.lo = 0 && p.hi = 0xffff

let uses_ports r =
  (not (is_any_ports r.sports)) || not (is_any_ports r.dports)

(* Dix10 IPv4 frame layout (16-bit words): 0-5 Ethernet addresses,
   6 EtherType, 7-16 option-less IP header, 17-18 transport ports. *)
let ethertype_word = 6
let vihl_word = 7
let frag_word = 10
let proto_word = 11
let src_words = (13, 14)
let dst_words = (15, 16)
let sport_word = 17
let dport_word = 18
let min_words = 19

let proto_number = function Tcp -> 6 | Udp -> 17 | Any_proto -> -1

let matches_addr a v =
  is_any_addr a || Int32.logand v (prefix_mask a.prefix) = a.addr

let matches_ports p v = p.lo <= v && v <= p.hi

let addr_at pkt (hi_w, lo_w) =
  match (Packet.word_opt pkt hi_w, Packet.word_opt pkt lo_w) with
  | Some hi, Some lo ->
      Some
        (Int32.logor
           (Int32.shift_left (Int32.of_int hi) 16)
           (Int32.of_int lo))
  | _ -> None

let matches r pkt =
  let word_is w f = match Packet.word_opt pkt w with
    | Some v -> f v
    | None -> false
  in
  let addr_is spec ws =
    is_any_addr spec
    || match addr_at pkt ws with
       | Some v -> matches_addr spec v
       | None -> false
  in
  let ports_is spec w =
    is_any_ports spec || word_is w (matches_ports spec)
  in
  (match r.proto with
  | Any_proto -> true
  | p -> word_is proto_word (fun v -> v land 0xff = proto_number p))
  && addr_is r.src src_words
  && addr_is r.dst dst_words
  (* ports live in the transport header: first fragment only *)
  && (not (uses_ports r) || word_is frag_word (fun v -> v land 0x1fff = 0))
  && ports_is r.sports sport_word
  && ports_is r.dports dport_word

(* {1 Text form} *)

let action_to_string = function Accept -> "accept" | Drop -> "drop"
let proto_to_string = function Any_proto -> "any" | Tcp -> "tcp" | Udp -> "udp"

let addr_to_string a =
  if is_any_addr a then "any"
  else
    let b i =
      Int32.to_int (Int32.shift_right_logical a.addr i) land 0xff
    in
    let dotted = Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0) in
    if a.prefix = 32 then dotted else Printf.sprintf "%s/%d" dotted a.prefix

let ports_to_string p =
  if is_any_ports p then "any"
  else if p.lo = p.hi then string_of_int p.lo
  else Printf.sprintf "%d-%d" p.lo p.hi

let to_string r =
  let b = Buffer.create 64 in
  Buffer.add_string b (action_to_string r.action);
  Buffer.add_char b ' ';
  Buffer.add_string b (proto_to_string r.proto);
  Buffer.add_string b " from ";
  Buffer.add_string b (addr_to_string r.src);
  if not (is_any_ports r.sports) then begin
    Buffer.add_string b " port ";
    Buffer.add_string b (ports_to_string r.sports)
  end;
  Buffer.add_string b " to ";
  Buffer.add_string b (addr_to_string r.dst);
  if not (is_any_ports r.dports) then begin
    Buffer.add_string b " port ";
    Buffer.add_string b (ports_to_string r.dports)
  end;
  Buffer.contents b

let pp ppf r = Format.pp_print_string ppf (to_string r)

let equal a b = a = b

(* Parsing. Hand-rolled so error messages can name the offending token. *)

let parse_int s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Some v
  | _ -> None

let parse_addr s =
  if s = "any" then Ok any_addr
  else
    let quad, prefix =
      match String.index_opt s '/' with
      | None -> (s, Ok 32)
      | Some i ->
          let p = String.sub s (i + 1) (String.length s - i - 1) in
          ( String.sub s 0 i,
            match parse_int p with
            | Some v when v <= 32 -> Ok v
            | _ -> Error (Printf.sprintf "bad prefix length %S" p) )
    in
    match prefix with
    | Error _ as e -> e
    | Ok prefix -> (
        match String.split_on_char '.' quad with
        | [ a; b; c; d ] -> (
            let byte x =
              match parse_int x with Some v when v <= 255 -> Some v | _ -> None
            in
            match (byte a, byte b, byte c, byte d) with
            | Some a, Some b, Some c, Some d ->
                let v =
                  Int32.logor
                    (Int32.shift_left (Int32.of_int a) 24)
                    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))
                in
                (* host bits under the mask are normalized away *)
                Ok (addr_v v prefix)
            | _ -> Error (Printf.sprintf "bad address %S" quad))
        | _ -> Error (Printf.sprintf "bad address %S" quad))

let parse_ports s =
  if s = "any" then Ok any_ports
  else
    match String.index_opt s '-' with
    | None -> (
        match parse_int s with
        | Some v when v <= 0xffff -> Ok (ports_v v v)
        | _ -> Error (Printf.sprintf "bad port %S" s))
    | Some i -> (
        let lo = String.sub s 0 i
        and hi = String.sub s (i + 1) (String.length s - i - 1) in
        match (parse_int lo, parse_int hi) with
        | Some lo, Some hi when lo <= hi && hi <= 0xffff ->
            Ok (ports_v lo hi)
        | _ -> Error (Printf.sprintf "bad port range %S" s))

let of_string line =
  let ( let* ) = Result.bind in
  let tokens =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let* action, rest =
    match tokens with
    | "accept" :: rest -> Ok (Accept, rest)
    | "drop" :: rest -> Ok (Drop, rest)
    | t :: _ -> Error (Printf.sprintf "expected accept/drop, got %S" t)
    | [] -> Error "empty rule"
  in
  let* proto, rest =
    match rest with
    | "any" :: rest -> Ok (Any_proto, rest)
    | "tcp" :: rest -> Ok (Tcp, rest)
    | "udp" :: rest -> Ok (Udp, rest)
    | t :: _ -> Error (Printf.sprintf "expected any/tcp/udp, got %S" t)
    | [] -> Error "missing protocol"
  in
  (* ADDR [port PORTS] after a fixed keyword *)
  let endpoint kw rest =
    let* rest =
      match rest with
      | k :: rest when k = kw -> Ok rest
      | t :: _ -> Error (Printf.sprintf "expected %S, got %S" kw t)
      | [] -> Error (Printf.sprintf "missing %S clause" kw)
    in
    let* addr, rest =
      match rest with
      | a :: rest ->
          let* a = parse_addr a in
          Ok (a, rest)
      | [] -> Error (Printf.sprintf "missing address after %S" kw)
    in
    match rest with
    | "port" :: p :: rest ->
        let* p = parse_ports p in
        Ok ((addr, p), rest)
    | "port" :: [] -> Error "missing port specification after \"port\""
    | rest -> Ok ((addr, any_ports), rest)
  in
  let* (src, sports), rest = endpoint "from" rest in
  let* (dst, dports), rest = endpoint "to" rest in
  let* () =
    match rest with
    | [] -> Ok ()
    | t :: _ -> Error (Printf.sprintf "trailing tokens starting at %S" t)
  in
  let r = { action; proto; src; sports; dst; dports } in
  if uses_ports r && r.proto = Any_proto then
    Error "port constraints require an explicit tcp or udp protocol"
  else Ok r
