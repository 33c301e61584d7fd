(** A shared Ethernet segment.

    The medium is half-duplex and broadcast: one transmission at a time
    (later transmissions queue behind the busy medium — CSMA/CD collisions
    and backoff are not modeled, a documented simplification that slightly
    flatters heavily-loaded results on both sides of every comparison), and
    every attached station sees every frame. Delivery is filtered per station
    by destination address, broadcast, or promiscuous mode, like real
    interface hardware. *)

type t
type endpoint

val create :
  Pf_sim.Engine.t -> Frame.variant -> rate_mbit:float -> ?latency:Pf_sim.Time.t ->
  ?loss:float * Pf_sim.Rng.t -> unit -> t
(** [rate_mbit] is the signalling rate (3.0 or 10.0 in the paper); [latency]
    is propagation plus inter-frame gap, default 50 µs. [loss] injects
    random frame loss — collisions and CRC errors, the data link's §3
    unreliability ("transmission is unreliable if the data link is
    unreliable") — with the given probability, drawn from the given
    deterministic generator. Default: lossless. *)

val variant : t -> Frame.variant
val engine : t -> Pf_sim.Engine.t

val attach : t -> addr:Addr.t -> rx:(Pf_pkt.Packet.t -> unit) -> endpoint
(** [rx] runs at frame-arrival time, in interrupt context (it should charge
    CPU itself). *)

val set_promiscuous : endpoint -> bool -> unit

val join_multicast : endpoint -> Addr.t -> unit
(** Accept frames addressed to the given multicast group (§5.2: the
    V-system's use of Ethernet hardware multicast). *)

val leave_multicast : endpoint -> Addr.t -> unit

val transmit : t -> from:endpoint -> Pf_pkt.Packet.t -> unit
(** Queues the (already framed) packet on the medium. Undecodable frames are
    dropped and counted. *)

val serialization_time : t -> bytes:int -> Pf_sim.Time.t

(** {1 Counters} *)

val frames_carried : t -> int
val bytes_carried : t -> int
val frames_dropped : t -> int
val utilization : t -> now:Pf_sim.Time.t -> float
(** Fraction of the elapsed time the medium was busy. *)
