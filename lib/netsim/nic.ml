type rss = {
  hash : Pf_pkt.Packet.t -> int; (* frame -> receive queue/CPU *)
  queue_rx : queue:int -> Pf_pkt.Packet.t -> unit;
}

type t = {
  link : Link.t;
  addr : Addr.t;
  endpoint : Link.endpoint;
  mutable rx : (Pf_pkt.Packet.t -> unit) option;
  mutable rss : rss option; (* multi-queue steering; wins over [rx] *)
  mutable received : int;
  mutable dropped : int;
}

let create link ~addr =
  let rec nic =
    lazy
      (let endpoint = Link.attach link ~addr ~rx:(fun frame -> deliver (Lazy.force nic) frame) in
       { link; addr; endpoint; rx = None; rss = None; received = 0; dropped = 0 })
  and deliver nic frame =
    match nic.rss with
    | Some r ->
      nic.received <- nic.received + 1;
      r.queue_rx ~queue:(r.hash frame) frame
    | None -> (
      match nic.rx with
      | Some handler ->
        nic.received <- nic.received + 1;
        handler frame
      | None -> nic.dropped <- nic.dropped + 1)
  in
  Lazy.force nic

let addr t = t.addr
let link t = t.link
let variant t = Link.variant t.link
let set_rx t handler = t.rx <- Some handler

let set_rss t ~hash ~rx =
  t.rss <- Some { hash; queue_rx = rx }

let set_promiscuous t flag = Link.set_promiscuous t.endpoint flag
let join_multicast t group = Link.join_multicast t.endpoint group
let leave_multicast t group = Link.leave_multicast t.endpoint group

let send_frame t frame = Link.transmit t.link ~from:t.endpoint frame

let send t ~dst ~ethertype payload =
  send_frame t (Frame.encode (variant t) ~dst ~src:t.addr ~ethertype payload)

let frames_received t = t.received
let frames_dropped t = t.dropped
