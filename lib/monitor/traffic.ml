module Packet = Pf_pkt.Packet
module Frame = Pf_net.Frame
module Addr = Pf_net.Addr

type t = {
  variant : Frame.variant;
  mutable packets : int;
  mutable bytes : int;
  protocols : (string, (int * int) ref) Hashtbl.t;
  talkers : (string, int ref) Hashtbl.t;
  histogram : (int, int ref) Hashtbl.t;
}

let create variant =
  {
    variant;
    packets = 0;
    bytes = 0;
    protocols = Hashtbl.create 16;
    talkers = Hashtbl.create 16;
    histogram = Hashtbl.create 12;
  }

let bucket_of n =
  let rec go b = if b >= n || b >= 65536 then b else go (2 * b) in
  go 64

let bump tbl key make update =
  match Hashtbl.find_opt tbl key with
  | Some r -> update r
  | None -> Hashtbl.add tbl key (make ())

let add t frame =
  let len = Packet.length frame in
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + len;
  let proto = Decode.protocol_name t.variant frame in
  bump t.protocols proto
    (fun () -> ref (1, len))
    (fun r ->
      let p, b = !r in
      r := (p + 1, b + len));
  (match Frame.header t.variant frame with
  | Some h -> bump t.talkers (Addr.to_string h.Frame.src) (fun () -> ref 1) incr
  | None -> ());
  bump t.histogram (bucket_of len) (fun () -> ref 1) incr

let add_trace t trace = List.iter (fun (r : Capture.record) -> add t r.Capture.frame) trace
let packets t = t.packets
let bytes t = t.bytes

let by_protocol t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.protocols []
  |> List.sort (fun (_, (a, _)) (_, (b, _)) -> compare b a)

let by_talker t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.talkers []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let size_histogram t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.histogram []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Synthetic traffic generation}

   The seeded, replayable multi-flow mix builder every load-driving
   experiment shares: a fixed set of flows (each a protocol, a pair of
   stations, and a proto-specific demultiplexing selector), a skew
   distribution over them, and a deterministic draw stream. Two generators
   built with the same arguments produce byte-identical frames in the same
   order, so benchmark runs replay exactly. *)

module Gen = struct
  module Rng = Pf_sim.Rng
  module Builder = Pf_pkt.Builder
  module Ipv4 = Pf_proto.Ipv4

  type proto = Pup | Udp | Tcp | Vmtp

  let proto_name = function
    | Pup -> "pup"
    | Udp -> "udp"
    | Tcp -> "tcp"
    | Vmtp -> "vmtp"

  type skew =
    | Uniform
    | Zipf of float
    | Hot of { hot : int; fraction : float }

  type flow = {
    index : int;
    proto : proto;
    src : Addr.t;
    dst : Addr.t;
    selector : int;
    frame : Packet.t;
  }

  (* Every flow targets station 2 — the receiving host of the two-station
     bench worlds — so the per-flow filters can test the destination host
     byte the way a real Pup endpoint would. *)
  let receiver = Addr.eth_host 2
  let receiver_host_byte = 2

  (* Pup carried on the 10 Mbit/s Ethernet, the [Util.sized_frame] layout:
     figure 3-7 shifted behind the 14-byte header — length, tc|type, id,
     dst port (host byte + socket), src port, padding to size. *)
  let pup_frame ~src ~socket ~total =
    let payload_len = max 20 (total - 14) in
    let b = Builder.create ~capacity:total () in
    Builder.add_word b payload_len;
    Builder.add_word b 1;
    Builder.add_word32 b 0l;
    Builder.add_byte b 0;
    Builder.add_byte b receiver_host_byte;
    Builder.add_word32 b socket;
    Builder.add_byte b 0;
    Builder.add_byte b 1;
    Builder.add_word32 b 99l;
    for _ = 1 to payload_len - 20 do
      Builder.add_byte b 0
    done;
    Frame.encode Frame.Dix10 ~dst:receiver ~src ~ethertype:0x0200
      (Builder.to_packet b)

  (* IP/UDP or IP/TCP: a real checksummed 20-byte IP header ({!Ipv4.encode})
     around a minimal transport header whose first two words are the port
     pair — all the constant-offset filters read. *)
  let ip_frame ~src ~protocol ~dst_port ~total =
    let l4_len = max 8 (total - 14 - 20) in
    let b = Builder.create ~capacity:l4_len () in
    Builder.add_word b 4242;
    Builder.add_word b dst_port;
    Builder.add_word b l4_len;
    Builder.add_word b 0;
    for _ = 1 to l4_len - 8 do
      Builder.add_byte b 0
    done;
    let ip =
      Ipv4.v ~protocol ~src:0x0a000001l ~dst:0x0a000002l (Builder.to_packet b)
    in
    Frame.encode Frame.Dix10 ~dst:receiver ~src ~ethertype:0x0800
      (Ipv4.encode ip)

  (* The simulated VMTP encapsulation (ethertype 0x0700): dst entity, src
     entity, kind|flags, transaction, length, padding. *)
  let vmtp_frame ~src ~entity ~total =
    let payload_len = max 14 (total - 14) in
    let b = Builder.create ~capacity:payload_len () in
    Builder.add_word32 b entity;
    Builder.add_word32 b 0x63l;
    Builder.add_word b 0;
    Builder.add_word b 1;
    Builder.add_word b (payload_len - 14);
    for _ = 1 to payload_len - 14 do
      Builder.add_byte b 0
    done;
    Frame.encode Frame.Dix10 ~dst:receiver ~src ~ethertype:0x0700
      (Builder.to_packet b)

  let build_frame ~src ~proto ~selector ~total =
    match proto with
    | Pup -> pup_frame ~src ~socket:(Int32.of_int selector) ~total
    | Udp -> ip_frame ~src ~protocol:Ipv4.proto_udp ~dst_port:selector ~total
    | Tcp -> ip_frame ~src ~protocol:Ipv4.proto_tcp ~dst_port:selector ~total
    | Vmtp -> vmtp_frame ~src ~entity:(Int32.of_int selector) ~total

  (* TCP twin of {!Pf_filter.Predicates.udp_dst_port} (there is no canned
     TCP predicate): same constant offsets, protocol 6. *)
  let tcp_dst_port ~priority port =
    let open Pf_filter.Dsl in
    Pf_filter.Expr.compile ~priority
      (word 18 =: lit port
      &&: (word 6 =: lit 0x0800)
      &&: (high_byte (word 7) =: lit 0x45)
      &&: (low_byte (word 11) =: lit 6))

  let filter ?(priority = 0) flow =
    match flow.proto with
    | Pup ->
      Pf_filter.Predicates.pup_dst_port_10mb ~priority ~host:receiver_host_byte
        (Int32.of_int flow.selector)
    | Udp -> Pf_filter.Predicates.udp_dst_port ~priority flow.selector
    | Tcp -> tcp_dst_port ~priority flow.selector
    | Vmtp ->
      Pf_filter.Predicates.vmtp_dst_entity ~priority (Int32.of_int flow.selector)

  type t = {
    rng : Rng.t; (* the draw stream; separate from flow-attribute setup *)
    flows : flow array;
    cdf : float array; (* cumulative flow weights, for weighted draws *)
  }

  let default_blend = [ (Pup, 4.); (Udp, 3.); (Tcp, 2.); (Vmtp, 1.) ]

  let make ?(blend = default_blend) ?(frame_bytes = 128) ~seed ~flows:n ~skew
      () =
    if n < 1 then invalid_arg "Traffic.Gen.make: need at least one flow";
    let total_w = List.fold_left (fun a (_, w) -> a +. w) 0. blend in
    if blend = [] || total_w <= 0. || List.exists (fun (_, w) -> w < 0.) blend
    then invalid_arg "Traffic.Gen.make: blend weights must be >= 0, sum > 0";
    (* Flow attributes come from their own stream so drawing packets does
       not perturb which protocols the flows got. *)
    let setup = Rng.create (seed lxor 0x5DEECE66D) in
    let pick_proto () =
      let r = Rng.float setup total_w in
      let rec go acc = function
        | [] -> assert false
        | [ (p, _) ] -> p
        | (p, w) :: rest -> if r < acc +. w then p else go (acc +. w) rest
      in
      go 0. blend
    in
    let flows =
      Array.init n (fun i ->
          let proto = pick_proto () in
          let src = Addr.eth_host (3 + (i mod 200)) in
          (* Selectors are disjoint per protocol family so every flow's
             filter accepts exactly its own frames. *)
          let selector =
            match proto with
            | Pup -> 0x1000 + i
            | Udp | Tcp -> 1024 + i
            | Vmtp -> 0x20000 + i
          in
          let frame = build_frame ~src ~proto ~selector ~total:frame_bytes in
          { index = i; proto; src; dst = receiver; selector; frame })
    in
    let weight i =
      match skew with
      | Uniform -> 1.
      | Zipf s -> 1. /. (float_of_int (i + 1) ** s)
      | Hot { hot; fraction } ->
        let hot = max 1 (min hot n) in
        if n <= hot then 1.
        else if i < hot then fraction /. float_of_int hot
        else (1. -. fraction) /. float_of_int (n - hot)
    in
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. weight i;
      cdf.(i) <- !acc
    done;
    { rng = Rng.create seed; flows; cdf }

  let flow t i = t.flows.(i)
  let flows t = Array.to_list t.flows
  let frame f = f.frame

  let draw t =
    let n = Array.length t.flows in
    let r = Rng.float t.rng t.cdf.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > r then hi := mid else lo := mid + 1
    done;
    t.flows.(!lo)

  let sequence t k = List.init k (fun _ -> draw t)
end

let report ppf t =
  Format.fprintf ppf "@[<v>%d packets, %d bytes@," t.packets t.bytes;
  Format.fprintf ppf "by protocol:@,";
  List.iter
    (fun (name, (p, b)) -> Format.fprintf ppf "  %-10s %6d pkts %8d bytes@," name p b)
    (by_protocol t);
  Format.fprintf ppf "top talkers:@,";
  List.iter (fun (who, n) -> Format.fprintf ppf "  %-20s %6d pkts@," who n) (by_talker t);
  Format.fprintf ppf "sizes:@,";
  List.iter
    (fun (bound, n) -> Format.fprintf ppf "  <=%-5d %6d pkts@," bound n)
    (size_histogram t);
  Format.fprintf ppf "@]"
