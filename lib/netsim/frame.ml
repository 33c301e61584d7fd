module Packet = Pf_pkt.Packet
module Builder = Pf_pkt.Builder

type variant = Exp3 | Dix10

let header_length = function Exp3 -> 4 | Dix10 -> 14
let max_payload = function Exp3 -> 576 | Dix10 -> 1500

type header = { dst : Addr.t; src : Addr.t; ethertype : int }

let encode variant ~dst ~src ~ethertype payload =
  if Packet.length payload > max_payload variant then
    invalid_arg "Frame.encode: payload exceeds MTU";
  let b = Builder.create ~capacity:(header_length variant + Packet.length payload) () in
  (match (variant, dst, src) with
  | Exp3, Addr.Exp d, Addr.Exp s ->
    Builder.add_byte b d;
    Builder.add_byte b s
  | Dix10, Addr.Eth d, Addr.Eth s ->
    Builder.add_string b d;
    Builder.add_string b s
  | (Exp3 | Dix10), _, _ ->
    invalid_arg "Frame.encode: address family does not match link variant");
  Builder.add_word b ethertype;
  Builder.add_packet b payload;
  Builder.to_packet b

let ethertype variant frame =
  if Packet.length frame < header_length variant then None
  else Some (Packet.word frame (match variant with Exp3 -> 1 | Dix10 -> 6))

let header variant frame =
  match (variant, ethertype variant frame) with
  | _, None -> None
  | Exp3, Some ethertype ->
    Some { dst = Addr.Exp (Packet.byte frame 0); src = Addr.Exp (Packet.byte frame 1); ethertype }
  | Dix10, Some ethertype ->
    Some
      { dst = Addr.Eth (Packet.to_string (Packet.sub frame ~pos:0 ~len:6));
        src = Addr.Eth (Packet.to_string (Packet.sub frame ~pos:6 ~len:6));
        ethertype;
      }

let payload variant frame =
  let hlen = header_length variant in
  if Packet.length frame < hlen then None
  else Some (Packet.sub frame ~pos:hlen ~len:(Packet.length frame - hlen))

let decode variant frame =
  match (header variant frame, payload variant frame) with
  | Some h, Some p -> Some (h, p)
  | _, _ -> None
