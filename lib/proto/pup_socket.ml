module Packet = Pf_pkt.Packet
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Ethertype = Pf_net.Ethertype

type t = {
  host : Host.t;
  socket : int32;
  port : Pfdev.port;
  host_number : int;
  net : int;
  variant : Frame.variant;
  checksum : bool;
  routes : (int, int) Hashtbl.t; (* foreign net -> gateway host number *)
}

(* Pup host numbers map onto the data link: directly on the experimental
   Ethernet (one-byte addresses), and via the [Addr.eth_host] convention on
   the 10Mb Ethernet (the low 16 bits of the locally-administered MAC) —
   §6.4 measured Pup/BSP over the 10 Mbit/s net. *)
let host_number_of_addr = function
  | Addr.Exp n -> n
  | Addr.Eth mac -> (Char.code mac.[4] lsl 8) lor Char.code mac.[5]

let addr_of_host_number variant n =
  match variant with
  | Frame.Exp3 -> Addr.exp n
  | Frame.Dix10 -> Addr.eth_host n

let pup_ethertype = function
  | Frame.Exp3 -> Ethertype.pup_exp3
  | Frame.Dix10 -> Ethertype.pup

let create ?(priority = 0) ?(checksum = false) ?(net = 0) host ~socket =
  let variant = Pf_net.Nic.variant (Host.nic host) in
  let host_number = host_number_of_addr (Host.addr host) in
  let filter =
    match variant with
    | Frame.Exp3 -> Pf_filter.Predicates.pup_dst_port ~priority ~host:host_number socket
    | Frame.Dix10 ->
      Pf_filter.Predicates.pup_dst_port_10mb ~priority ~host:(host_number land 0xff) socket
  in
  let port = Pfdev.open_port (Host.pf host) in
  (match Pfdev.set_filter port filter with
  | Ok () -> ()
  | Error e ->
    invalid_arg (Format.asprintf "Pup_socket.create: %a" Pfdev.pp_install_error e));
  { host; socket; port; host_number; net; variant; checksum; routes = Hashtbl.create 4 }

let host t = t.host
let socket t = t.socket
let port t = t.port
let host_number t = t.host_number
let net t = t.net
let set_route t ~net ~via = Hashtbl.replace t.routes net via

let send t ~dst ?(transport_control = 0) ~ptype ~id data =
  let pup =
    Pup.v ~transport_control ~ptype ~id ~dst
      ~src:(Pup.port ~net:t.net ~host:(t.host_number land 0xff) t.socket)
      data
  in
  (* Off-net destinations go to the routed gateway's data-link address. *)
  let wire_host =
    if dst.Pup.net = t.net then dst.Pup.host
    else begin
      match Hashtbl.find_opt t.routes dst.Pup.net with
      | Some via -> via
      | None -> dst.Pup.host (* no route: optimistic direct delivery *)
    end
  in
  (* User-level protocol work: header construction (and checksum if on). *)
  let costs = Host.costs t.host in
  Process.use_cpu costs.Pf_sim.Costs.proto_user_per_packet;
  if t.checksum then
    Process.use_cpu
      (Pf_sim.Costs.checksum_cost costs ~bytes:(Packet.length data + Pup.header_bytes));
  let payload = Pup.encode ~checksum:t.checksum pup in
  let frame =
    Frame.encode t.variant
      ~dst:(addr_of_host_number t.variant wire_host)
      ~src:(Host.addr t.host) ~ethertype:(pup_ethertype t.variant) payload
  in
  Pfdev.write t.port frame

let decode_capture t (capture : Pfdev.capture) =
  let costs = Host.costs t.host in
  Process.use_cpu costs.Pf_sim.Costs.proto_user_per_packet;
  if t.checksum then
    Process.use_cpu
      (Pf_sim.Costs.checksum_cost costs ~bytes:(Packet.length capture.Pfdev.packet));
  match Frame.payload t.variant capture.Pfdev.packet with
  | None ->
    Stats.incr (Host.stats t.host) "pup.garbage";
    None
  | Some payload -> (
    match Pup.decode ~verify:t.checksum payload with
    | Ok pup -> Some pup
    | Error _ ->
      Stats.incr (Host.stats t.host) "pup.garbage";
      None)

let rec recv ?timeout t =
  Pfdev.set_timeout t.port timeout;
  match Pfdev.read t.port with
  | None -> None
  | Some capture -> (
    match decode_capture t capture with
    | Some pup -> Some pup
    | None -> recv ?timeout t)

let close t = Pfdev.close_port t.port
