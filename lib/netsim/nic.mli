(** A network interface: one station's attachment to a {!Link}.

    The receive handler is installed by the kernel ({!Pf_kernel.Host}); it
    runs in interrupt context at frame-arrival time. *)

type t

val create : Link.t -> addr:Addr.t -> t
val addr : t -> Addr.t
val link : t -> Link.t
val variant : t -> Frame.variant

val set_rx : t -> (Pf_pkt.Packet.t -> unit) -> unit
(** Replaces the receive handler (frames arriving before one is installed
    are counted as dropped). *)

val set_rss : t -> hash:(Pf_pkt.Packet.t -> int) -> rx:(queue:int -> Pf_pkt.Packet.t -> unit) -> unit
(** Receive-side steering: the NIC hashes each arriving frame ([hash] runs
    in the receive hardware, free of simulated cost) to pick a receive
    queue, then hands the frame to [rx] with that queue. Once installed,
    steering takes precedence over the single-queue {!set_rx} handler.
    The kernel maps queues to CPUs one-to-one. *)

val set_promiscuous : t -> bool -> unit
(** Receive every frame on the segment, for network monitoring (§5.4). *)

val join_multicast : t -> Addr.t -> unit
(** Accept a multicast group address (§5.2). *)

val leave_multicast : t -> Addr.t -> unit

val send : t -> dst:Addr.t -> ethertype:int -> Pf_pkt.Packet.t -> unit
(** Frame a payload and transmit it. *)

val send_frame : t -> Pf_pkt.Packet.t -> unit
(** Transmit a pre-framed packet unchanged — the packet filter's write path,
    where "the user presents a buffer containing a complete packet, including
    data-link header" (§3). *)

val frames_received : t -> int
val frames_dropped : t -> int
