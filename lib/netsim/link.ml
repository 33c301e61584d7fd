module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine

type endpoint = {
  addr : Addr.t;
  rx : Packet.t -> unit;
  mutable promiscuous : bool;
  mutable groups : Addr.t list; (* joined multicast groups *)
  id : int;
}

type t = {
  engine : Engine.t;
  variant : Frame.variant;
  rate_mbit : float;
  latency : Pf_sim.Time.t;
  loss : (float * Pf_sim.Rng.t) option;
  mutable stations : endpoint list;
  mutable next_id : int;
  mutable busy_until : Pf_sim.Time.t;
  mutable busy_time : Pf_sim.Time.t;
  mutable frames : int;
  mutable bytes : int;
  mutable dropped : int;
}

let create engine variant ~rate_mbit ?(latency = 50) ?loss () =
  {
    engine;
    variant;
    rate_mbit;
    latency;
    loss;
    stations = [];
    next_id = 0;
    busy_until = 0;
    busy_time = 0;
    frames = 0;
    bytes = 0;
    dropped = 0;
  }

let variant t = t.variant
let engine t = t.engine

let attach t ~addr ~rx =
  let ep = { addr; rx; promiscuous = false; groups = []; id = t.next_id } in
  t.next_id <- t.next_id + 1;
  t.stations <- ep :: t.stations;
  ep

let set_promiscuous ep flag = ep.promiscuous <- flag

let join_multicast ep group =
  if not (List.exists (Addr.equal group) ep.groups) then ep.groups <- group :: ep.groups

let leave_multicast ep group =
  ep.groups <- List.filter (fun g -> not (Addr.equal g group)) ep.groups

let serialization_time t ~bytes =
  int_of_float (Float.round (float_of_int (bytes * 8) /. t.rate_mbit))

let wants ep (header : Frame.header) =
  ep.promiscuous || Addr.is_broadcast header.dst || Addr.equal ep.addr header.dst
  || (Addr.is_multicast header.dst && List.exists (Addr.equal header.dst) ep.groups)

let transmit t ~from frame =
  match Frame.header t.variant frame with
  | None -> t.dropped <- t.dropped + 1
  | Some header when
      (match t.loss with Some (p, rng) -> Pf_sim.Rng.bool rng p | None -> false) ->
    (* The frame occupies the medium but never arrives anywhere — a
       collision or CRC error. *)
    ignore header;
    let now = Engine.now t.engine in
    let start = max now t.busy_until in
    let ser = serialization_time t ~bytes:(Packet.length frame) in
    t.busy_until <- start + ser;
    t.busy_time <- t.busy_time + ser;
    t.dropped <- t.dropped + 1
  | Some header ->
    let now = Engine.now t.engine in
    let start = max now t.busy_until in
    let ser = serialization_time t ~bytes:(Packet.length frame) in
    t.busy_until <- start + ser;
    t.busy_time <- t.busy_time + ser;
    t.frames <- t.frames + 1;
    t.bytes <- t.bytes + Packet.length frame;
    let arrival = start + ser + t.latency in
    List.iter
      (fun ep ->
        if ep.id <> from.id && wants ep header then
          Engine.schedule t.engine ~at:arrival (fun () -> ep.rx frame))
      t.stations

let frames_carried t = t.frames
let bytes_carried t = t.bytes
let frames_dropped t = t.dropped

let utilization t ~now =
  if now <= 0 then 0. else float_of_int t.busy_time /. float_of_int now
