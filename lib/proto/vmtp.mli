(** VMTP, the V-system message transaction protocol (Cheriton 1986) — the
    one protocol the paper measures in {e both} a packet-filter-based and a
    kernel-resident implementation (§5.2, §6.3), giving the direct price of
    user-level implementation.

    Simplified model (documented in DESIGN.md): a transaction is a
    single-packet request and a response of up to 16 KB carried in 1 KB
    data packets (index/count in the header), acknowledged by one group-ack
    from the client; servers cache their last response per client for
    duplicate-request retransmission; VMTP data is {e not} checksummed
    (§6.3). VMTP rides directly on the Ethernet with the
    simulation-assigned Ethertype 0x0700.

    - [User { batch }]: everything in user processes over packet filter
      ports ([batch] selects read batching, tables 6-3/6-4);
    - [Kernel]: the protocol engine runs at interrupt level; a user process
      pays one domain crossing per {e message}, not per packet
      (figure 2-3). *)

type impl = User of { batch : bool } | Kernel

val max_response : int
(** 16 KB *)

val packet_data : int
(** 1 KB per data packet *)

val default_user_overhead : int
(** Extra per-packet protocol processing (µs) of the measured user-level
    implementation, a calibrated constant (1.6 ms): the paper notes "the two
    implementations are not of precisely equal quality" (§6.3), and the
    user-level prototype's per-packet processing dominated its cost. Both
    [server] and [client] accept an override. *)

val user_port_queue : int
(** Input-queue limit a user-level client's port uses (8 packets). A
    16-packet response burst against a slow reader overflows it; recovery
    is by selective retransmission (the request's index field carries a
    16-bit needed-parts mask), which is how VMTP really recovered losses
    and the paper's explanation of part of the batching win. *)

(** {1 Server} *)

type server

val server :
  ?user_overhead:int ->
  Pf_kernel.Host.t -> impl -> entity:int32 -> handler:(Pf_pkt.Packet.t -> Pf_pkt.Packet.t) -> server
(** Spawns the server's user process, which loops receiving requests and
    answering with [handler]. *)

val stop_server : server -> unit
val requests_served : server -> int

(** {1 Client} *)

type client

val client : ?user_overhead:int -> Pf_kernel.Host.t -> impl -> entity:int32 -> client

val call :
  ?timeout:Pf_sim.Time.t -> client -> server:int32 -> server_addr:Pf_net.Addr.t ->
  Pf_pkt.Packet.t -> Pf_pkt.Packet.t option
(** One blocking transaction; retransmits the request a few times before
    giving up ([None]). [timeout] is per attempt (default 500 ms). *)

val close_client : client -> unit
